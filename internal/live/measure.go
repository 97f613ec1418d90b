package live

import (
	"time"

	"sperke/internal/media"
	"sperke/internal/netem"
	"sperke/internal/obs"
	"sperke/internal/sim"
	"sperke/internal/transport"
)

// FallbackOpts applies an upload adaptation mode (§3.4.2) at the
// pipeline level: the broadcaster reduces what it sends whenever the
// configured uplink cannot carry the source rate.
type FallbackOpts struct {
	Mode UploadMode
	// Plan is the horizon uploaded under UploadSpatialFallback.
	Plan HorizonPlan
}

// Opts configures one Measure run. The zero value reproduces the
// paper's Table 2 protocol: a two-minute broadcast on constant links.
type Opts struct {
	// Duration of the broadcast; 0 defaults to 2 minutes (§3.4.1 runs
	// 2-minute experiments).
	Duration time.Duration
	// Cond supplies constant link rates (0 = unshaped).
	Cond Condition
	// Degrade, when non-nil, activates the breaker-driven spatial
	// fallback: upload-piece timeouts trip the uplink breaker, degraded
	// pieces carry only the fallback horizon's share of the panorama,
	// and recovery restores the full 360°.
	Degrade *DegradeConfig
	// Fallback, when non-nil, applies a static upload adaptation mode:
	// spatial fallback shrinks each piece to the horizon's share,
	// quality reduction shrinks it to the uplink's share at full
	// horizon, fixed keeps today's drop-frames-when-behind behaviour.
	Fallback *FallbackOpts
}

// Measurement is one Measure run's outcome. Fields beyond the embedded
// Result are populated only when the corresponding option was set.
type Measurement struct {
	Result
	// DegradedPieces of TotalPieces were uploaded at the fallback
	// horizon's share (Opts.Degrade); Transitions is the uplink
	// breaker's state-change log.
	DegradedPieces, TotalPieces int
	Transitions                 []transport.BreakerTransition
	// UploadedFraction is the mean share of the panorama (spatial mode)
	// or of the source rate (quality mode) that went up the wire; 1
	// when no Fallback was configured or the uplink was sufficient.
	UploadedFraction float64
}

// Measure simulates one live broadcast under the given options and
// returns the latency statistics of Table 2 plus any fallback
// accounting. It is the one-viewer broadcast with upload adaptation;
// MeasureViewers and MeasureFoVGuidedLive drive the same pipeline for
// a viewer population and a tile-fetching viewer. Whatever the options,
// it runs the full pipeline:
//
//	camera → encoder → upload queue (drop beyond the app's cap) →
//	ingest → server re-encode → segment packaging → MPD poll or push →
//	download (with DASH adaptation where the platform offers it) →
//	viewer prebuffer → display
//
// Degrade and Fallback compose: Fallback first rescales the source
// rate for the static adaptation, then Degrade's breaker narrows
// pieces dynamically on top of it.
func Measure(seed int64, p Platform, o Opts) Measurement {
	dur := o.Duration
	if dur <= 0 {
		dur = 2 * time.Minute
	}
	m := Measurement{UploadedFraction: 1}
	if fb := o.Fallback; fb != nil {
		frac := 1.0
		if o.Cond.Up > 0 && o.Cond.Up < float64(p.IngestBitrate) {
			switch fb.Mode {
			case UploadSpatialFallback:
				frac = fb.Plan.fraction()
			case UploadQualityReduce:
				// The re-encode is slightly below the link so it actually fits.
				frac = o.Cond.Up / float64(p.IngestBitrate) * 0.95
			}
		}
		if frac > 1 {
			frac = 1
		}
		p.IngestBitrate = media.Bitrate(float64(p.IngestBitrate) * frac)
		if p.IngestBitrate < 1 {
			p.IngestBitrate = 1
		}
		m.UploadedFraction = frac
	}
	clock := sim.NewClock(seed)
	var deg *degrader
	var reg *obs.Registry
	var armFaults func(*sim.Clock, *netem.Path)
	if cfg := o.Degrade; cfg != nil {
		const pieceDur = 250 * time.Millisecond
		plan := cfg.Plan
		if plan.SpanDeg <= 0 {
			plan.SpanDeg = 180
		}
		reg = cfg.Obs
		deg = &degrader{
			clock:    clock,
			br:       transport.NewBreaker(clock, cfg.Breaker),
			plan:     plan,
			deadline: 2 * pieceDur,
			obsReg:   reg,
		}
		deg.br.Obs = reg
		armFaults = cfg.ArmFaults
	}
	v := newViewerSim(clock, p, o.Cond.Down, dur)
	v.obsReg = reg
	skips := runBroadcast(clock, p, o.Cond.Up, dur, []*viewerSim{v}, deg, reg, armFaults)
	res := v.finish()
	res.SkippedSegments = skips
	m.Result = res
	if deg != nil {
		m.DegradedPieces = deg.degradedPieces
		m.TotalPieces = deg.totalPieces
		m.Transitions = deg.br.Transitions()
	}
	return m
}
