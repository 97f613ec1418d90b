package live

import (
	"time"

	"sperke/internal/hmp"
	"sperke/internal/sphere"
	"sperke/internal/tiling"
	"sperke/internal/trace"
)

// Viewer is one live viewer: their head trace over the broadcast and
// the E2E latency they experience. Latency heterogeneity across viewers
// is exactly what §3.4.2 exploits: low-latency viewers see a scene
// seconds before high-latency viewers do, so their head movements are a
// prophecy for everyone behind them.
type Viewer struct {
	Trace *trace.HeadTrace
	// Latency is the viewer's E2E latency: at wall time t they display
	// scene content t − Latency.
	Latency time.Duration
}

// viewAtContent returns where the viewer was looking when the given
// content time played for them.
func (v Viewer) viewAtContent(content time.Duration) sphere.Orientation {
	// The viewer displays content c at wall time c + Latency; their head
	// trace is indexed by their own playback time, which equals content
	// time (they watch the stream continuously from its start).
	return v.Trace.At(content)
}

// CrowdLivePredictor predicts a high-latency viewer's FoV from the
// head movements low-latency viewers exhibited when they watched the
// same scene moments earlier (§3.4.2).
type CrowdLivePredictor struct {
	// Ahead are the viewers with lower latency than the target.
	Ahead []Viewer
	// TargetLatency is the target viewer's E2E latency.
	TargetLatency time.Duration
}

// predictContent returns the crowd's mean view direction for the given
// content time, computed only from viewers who have already displayed
// that content at the target's wall clock — i.e. those with strictly
// lower latency. ok is false when no viewer is far enough ahead.
func (c *CrowdLivePredictor) predictContent(content time.Duration) (sphere.Orientation, bool) {
	var sum sphere.Vec3
	n := 0
	for _, v := range c.Ahead {
		if v.Latency >= c.TargetLatency {
			continue // not actually ahead
		}
		d := v.viewAtContent(content).Direction()
		sum.X += d.X
		sum.Y += d.Y
		sum.Z += d.Z
		n++
	}
	if n == 0 {
		return sphere.Orientation{}, false
	}
	return sphere.FromDirection(sum), true
}

// LiveHMPReport compares crowd-sourced live prediction against the
// static (keep-looking-here) baseline for one high-latency viewer.
type LiveHMPReport struct {
	// CrowdHit and StaticHit are overall FoV hit rates at the horizon.
	CrowdHit, StaticHit float64
	// CrowdRecovery is the crowd hit rate restricted to the samples
	// where the static baseline missed — the head actually moved. These
	// are exactly the cases FoV-guided prefetch fails without external
	// intelligence, and where the §3.4.2 crowd signal pays off.
	CrowdRecovery float64
	// MovedFrac is the fraction of samples where static missed.
	MovedFrac float64
}

// LiveHMPAccuracy evaluates one high-latency target viewer over the
// whole broadcast. horizon is the prefetch horizon: how far ahead of
// the target's playhead chunks must be requested.
func LiveHMPAccuracy(pred *CrowdLivePredictor, target Viewer, fov sphere.FoV,
	dur, horizon time.Duration) LiveHMPReport {
	const step = 250 * time.Millisecond
	var crowd, static, total, moved, recovered int
	for content := time.Second; content+horizon < dur; content += step {
		// At decision time the target displays `content`; we must
		// predict their view at content+horizon.
		actual := target.viewAtContent(content + horizon)
		crowdHit := false
		if cv, ok := pred.predictContent(content + horizon); ok {
			crowdHit = sphere.AngularDistance(cv, actual) <= fov.Width/2
		}
		staticHit := sphere.AngularDistance(target.viewAtContent(content), actual) <= fov.Width/2
		if crowdHit {
			crowd++
		}
		if staticHit {
			static++
		} else {
			moved++
			if crowdHit {
				recovered++
			}
		}
		total++
	}
	var rep LiveHMPReport
	if total == 0 {
		return rep
	}
	rep.CrowdHit = float64(crowd) / float64(total)
	rep.StaticHit = float64(static) / float64(total)
	rep.MovedFrac = float64(moved) / float64(total)
	if moved > 0 {
		rep.CrowdRecovery = float64(recovered) / float64(moved)
	}
	return rep
}

// LiveHeatmap builds a tile heatmap from the ahead-viewers' reactions
// for FoV-guided delivery to lagging viewers: the live analogue of the
// §3.2 crowd heatmap, with content time as the index.
func LiveHeatmap(vp tiling.Viewport, chunkDur, dur time.Duration, ahead []Viewer) *hmp.Heatmap {
	traces := make([]*trace.HeadTrace, len(ahead))
	for i, v := range ahead {
		traces[i] = v.Trace
	}
	return hmp.BuildHeatmap(vp, chunkDur, dur, traces)
}
