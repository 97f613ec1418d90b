// Package core is Sperke itself: the FoV-guided adaptive streaming
// session that ties the substrates together exactly as Fig. 4 sketches.
// Head sensor samples feed the HMP predictor; the fetching scheduler
// turns predictions into super chunks, OOS rings and upgrade decisions
// (§3.1); the transport scheduler moves them over one or more network
// paths (§3.3); and the playback stage renders whatever arrived,
// accounting QoE.
//
// The session runs on the deterministic simulation clock, so identical
// configurations reproduce identical reports — the property every
// experiment in EXPERIMENTS.md relies on.
package core

import (
	"context"
	"fmt"
	"time"

	"sperke/internal/abr"
	"sperke/internal/hmp"
	"sperke/internal/media"
	"sperke/internal/netem"
	"sperke/internal/obs"
	"sperke/internal/qoe"
	"sperke/internal/sim"
	"sperke/internal/sphere"
	"sperke/internal/tiling"
	"sperke/internal/trace"
	"sperke/internal/transport"
)

// StreamMode selects the delivery strategy.
type StreamMode int

// Modes.
const (
	// FoVGuided fetches the predicted FoV at high quality plus OOS rings
	// — Sperke's approach.
	FoVGuided StreamMode = iota
	// FoVAgnostic always fetches the full panorama — today's YouTube/
	// Facebook behaviour the paper contrasts against (§2).
	FoVAgnostic
)

func (m StreamMode) String() string {
	if m == FoVAgnostic {
		return "fov-agnostic"
	}
	return "fov-guided"
}

// Config describes one streaming session.
type Config struct {
	Video *media.Video
	Mode  StreamMode
	// Algorithm is the regular VRA applied to super chunks (§3.1.2 part
	// one); nil defaults to Throughput.
	Algorithm abr.Algorithm
	// OOS parameterizes out-of-sight fetching (part two).
	OOS abr.OOSPolicy
	// EnableUpgrades turns on incremental chunk upgrades (part three).
	EnableUpgrades bool
	// HybridSVC enables the §3.1.2 closing extension on an SVC video:
	// the server keeps both SVC and AVC forms of every chunk, and each
	// fetch picks the cheaper expected encoding — AVC for chunks
	// unlikely to be upgraded (dodging the SVC overhead), SVC where an
	// upgrade is probable.
	HybridSVC bool
	// NewPredictor builds the HMP; nil defaults to linear regression.
	NewPredictor func() hmp.Predictor
	// Heatmap, if set, informs OOS selection with crowd statistics
	// (§3.2).
	Heatmap *hmp.Heatmap
	// BandwidthBudget, if positive, caps the session's planned rate in
	// bits/s — §3.1.2's "bandwidth budget configured by the user", e.g.
	// a metered cellular plan. The FoV super chunk is planned within it
	// and OOS fetching spends only what remains.
	BandwidthBudget float64
	// PredictionWindow bounds prefetching: content further ahead than
	// this is not planned (HMP has nothing to say about it). Zero
	// defaults to 2 s.
	PredictionWindow time.Duration
	// Observer, when set, receives a structured Event for every step of
	// the session — planning, fetches, upgrades, plays, stalls — for
	// timelines and debugging. Called synchronously on the sim clock.
	Observer func(Event)
	// reg, set by WithObs, receives the session's final report. Nil
	// disables metrics.
	reg *obs.Registry
}

func (c *Config) withDefaults() error {
	if c.Video == nil {
		return fmt.Errorf("core: config has no video")
	}
	if err := c.Video.Validate(); err != nil {
		return err
	}
	if c.Algorithm == nil {
		c.Algorithm = &abr.Throughput{}
	}
	if c.NewPredictor == nil {
		c.NewPredictor = func() hmp.Predictor { return &hmp.LinearRegression{} }
	}
	if c.PredictionWindow <= 0 {
		c.PredictionWindow = 2 * time.Second
	}
	return nil
}

// Report is the outcome of a session.
type Report struct {
	QoE qoe.Metrics
	// BytesFetched is total wire usage; BytesWasted the share never
	// rendered.
	BytesFetched, BytesWasted int64
	// Upgrades counts incremental upgrades executed; UpgradesDeferred
	// and UpgradesSkipped the other outcomes (§3.1.2 part three).
	Upgrades, UpgradesDeferred, UpgradesSkipped int
	// UrgentFetches counts HMP corrections that needed a rush fetch
	// (Table 1 "urgent chunks").
	UrgentFetches int
	// HybridAVCFetches and HybridSVCFetches count per-chunk encoding
	// decisions in hybrid sessions (§3.1.2 extension).
	HybridAVCFetches, HybridSVCFetches int
	// StartupDelay is the time before the first frame.
	StartupDelay time.Duration
}

// tileState tracks one (interval, tile) download.
type tileState struct {
	quality int // -1 = not downloaded
	bytes   int64
	pending bool // a fetch or upgrade is in flight
	tracked bool // the session has asked for this tile (see Session.tile)
	// enc is the encoding the tile was fetched in (hybrid sessions mix
	// them; otherwise it is the video's encoding).
	enc media.Encoding
}

// Session drives one playback. Create with NewSession, run with Run.
type Session struct {
	clock *sim.Clock
	cfg   Config
	head  *trace.HeadTrace
	sched transport.Scheduler
	// view is the video's grid seen through sphere.DefaultFoV: every
	// planning, upgrade and playback tick asks it which tiles are visible.
	view tiling.Viewport

	col       qoe.Collector
	est       netem.HarmonicMean
	predictor hmp.Predictor
	fedIdx    int

	// chunks is the video's NumChunks, read once: the loops over its
	// intervals do not ask again.
	chunks int
	// state holds every (interval, tile) of the video in one slab,
	// interval-major; an entry counts only once tracked. The slab never
	// grows, so fetch callbacks keep pointers into it.
	state      []tileState
	planned    map[int]bool
	fovQuality map[int]int
	// visibleEver is a slab laid out like state: whether the tile was on
	// screen at any probe of its interval's play span.
	visibleEver []bool
	// The tile sets of the three tickers, each rebuilt in place by its
	// own: the FoV rendered, the super chunk planned (plan.Tiles), the
	// predicted FoV checked for upgrades. None outlives the tick that
	// fills it.
	playTiles, upgradeTiles []tiling.TileID
	plan                    abr.SuperChunk

	playIdx      int
	nextPlayWall time.Duration
	started      bool
	ran          bool
	ctx          context.Context

	// freeFetch lists the fetch records whose request has completed.
	freeFetch *fetch

	rep Report
}

// SessionOption configures a Session at construction without growing
// NewSession's positional parameter list.
type SessionOption func(*Config)

// WithObs mirrors the session's final report into a metrics registry
// (core.session.*), so it is observable outside test assertions.
func WithObs(r *obs.Registry) SessionOption {
	return func(c *Config) { c.reg = r }
}

// NewSession builds a session. head is the viewer's actual head
// movement; sched delivers chunk requests (single-path or multipath).
// Options apply on top of cfg, overriding the matching fields.
func NewSession(clock *sim.Clock, cfg Config, head *trace.HeadTrace, sched transport.Scheduler, opts ...SessionOption) (*Session, error) {
	for _, opt := range opts {
		opt(&cfg)
	}
	if err := cfg.withDefaults(); err != nil {
		return nil, err
	}
	if head == nil {
		return nil, fmt.Errorf("core: session needs a head trace")
	}
	if sched == nil {
		return nil, fmt.Errorf("core: session needs a transport scheduler")
	}
	chunks := cfg.Video.NumChunks()
	cells := chunks * cfg.Video.Grid.Tiles()
	s := &Session{
		chunks:      chunks,
		clock:       clock,
		cfg:         cfg,
		head:        head,
		sched:       sched,
		view:        tiling.NewViewport(cfg.Video.Grid, sphere.DefaultFoV),
		predictor:   cfg.NewPredictor(),
		state:       make([]tileState, cells),
		planned:     make(map[int]bool),
		fovQuality:  make(map[int]int),
		visibleEver: make([]bool, cells),
	}
	return s, nil
}

// Run plays the whole video and returns the report. It drives the
// clock until the session completes. A session runs once; further
// calls return the same report.
func (s *Session) Run() Report { return s.RunContext(context.Background()) }

// RunContext is Run under a caller context: cancellation is observed at
// the session's planning and playback ticks — the clock halts, pending
// fetches are shed by schedulers that read Request.Ctx, and the partial
// report accumulated so far is returned. The context does not alter any
// behaviour while it stays live, so RunContext(Background) is
// byte-identical to Run.
func (s *Session) RunContext(ctx context.Context) Report {
	if s.ran {
		return s.rep
	}
	s.ran = true
	s.ctx = ctx
	s.nextPlayWall = 0
	s.schedulePlanner()
	s.clock.Schedule(s.clock.Now(), func() { s.playInterval(0, s.clock.Now()) })
	s.clock.Run()
	s.accountWaste()
	s.rep.QoE = s.col.Metrics()
	s.publishReport()
	return s.rep
}

// canceled reports whether the session's context is done; checked at
// event boundaries on the sim thread (sim.Clock itself is not safe for
// cross-goroutine Halt).
func (s *Session) canceled() bool {
	return s.ctx.Err() != nil
}

// publishReport mirrors the finished session's report into the metrics
// registry (core.session.*). Counters add across sessions, so a bench
// run over many sessions accumulates aggregate totals.
func (s *Session) publishReport() {
	r := s.cfg.reg
	if r == nil {
		return
	}
	r.Counter("core.session.runs").Inc()
	r.Counter("core.session.bytes_fetched").Add(s.rep.BytesFetched)
	r.Counter("core.session.bytes_wasted").Add(s.rep.BytesWasted)
	r.Counter("core.session.urgent_fetches").Add(int64(s.rep.UrgentFetches))
	r.Counter("core.session.upgrades").Add(int64(s.rep.Upgrades))
	r.Counter("core.session.stalls").Add(int64(s.rep.QoE.Stalls))
	r.Histogram("core.session.startup_ms").Observe(
		float64(s.rep.StartupDelay) / float64(time.Millisecond))
	r.Histogram("core.session.stall_ms").Observe(
		float64(s.rep.QoE.StallTime) / float64(time.Millisecond))
	r.Histogram("core.session.mean_fov_quality").Observe(s.rep.QoE.MeanQuality())
}

// ---- bookkeeping helpers ----

// interval returns the slab's entries for interval i, indexed by tile
// id, tracked or not.
func (s *Session) interval(i int) []tileState {
	n := s.cfg.Video.Grid.Tiles()
	return s.state[i*n : (i+1)*n]
}

// tile returns the state of tile id in interval i, tracking it from now
// on.
func (s *Session) tile(i int, id tiling.TileID) *tileState {
	ts := &s.interval(i)[id]
	if !ts.tracked {
		*ts = tileState{quality: -1, enc: s.cfg.Video.Encoding, tracked: true}
	}
	return ts
}

// tracked returns the state of tile id in interval i, or nil if the
// session never asked for it.
func (s *Session) tracked(i int, id tiling.TileID) *tileState {
	if ts := &s.interval(i)[id]; ts.tracked {
		return ts
	}
	return nil
}

// feedPredictor delivers head samples up to virtual now.
func (s *Session) feedPredictor() {
	now := s.clock.Now()
	for s.fedIdx < len(s.head.Samples) && s.head.Samples[s.fedIdx].At <= now {
		s.predictor.Observe(s.head.Samples[s.fedIdx])
		s.fedIdx++
	}
}

// deadlineWall projects the wall time interval i will start playing.
func (s *Session) deadlineWall(i int) time.Duration {
	ahead := i - s.playIdx
	if ahead < 0 {
		ahead = 0
	}
	return s.nextPlayWall + time.Duration(ahead)*s.cfg.Video.ChunkDuration
}

// bufferLevel estimates playable content ahead of the playhead:
// consecutive planned intervals whose FoV tiles all arrived.
func (s *Session) bufferLevel() time.Duration {
	n := 0
	for i := s.playIdx; i < s.chunks; i++ {
		if !s.intervalReady(i) {
			break
		}
		n++
	}
	return time.Duration(n) * s.cfg.Video.ChunkDuration
}

// intervalReady reports whether all planned FoV tiles of interval i are
// downloaded.
func (s *Session) intervalReady(i int) bool {
	if !s.planned[i] {
		return false
	}
	// A conjunction over the interval's tracked tiles: the order they
	// are visited in cannot change it.
	any := false
	for _, ts := range s.interval(i) {
		if !ts.tracked {
			continue
		}
		if ts.pending && ts.quality < 0 {
			return false
		}
		any = true
	}
	// At least one tile must exist (planning always creates some).
	return any
}

// ---- planning (the fetching scheduler of Fig. 4) ----

func (s *Session) schedulePlanner() {
	const tick = 250 * time.Millisecond
	var loop func()
	loop = func() {
		if s.canceled() {
			s.clock.Halt()
			return
		}
		if s.playIdx >= s.chunks {
			return // session over
		}
		s.planAhead()
		if s.cfg.EnableUpgrades && s.cfg.Mode == FoVGuided {
			s.checkUpgrades()
		}
		s.clock.After(tick, loop)
	}
	s.clock.Schedule(s.clock.Now(), loop)
}

// planAhead plans every unplanned interval starting within the
// prediction window.
func (s *Session) planAhead() {
	v := s.cfg.Video
	now := s.clock.Now()
	for i := s.playIdx; i < s.chunks; i++ {
		if s.planned[i] {
			continue
		}
		deadline := s.deadlineWall(i)
		if deadline > now+s.cfg.PredictionWindow+v.ChunkDuration {
			break
		}
		s.planInterval(i, deadline)
	}
}

func (s *Session) planInterval(i int, deadline time.Duration) {
	v := s.cfg.Video
	s.planned[i] = true
	contentMid := v.ChunkStart(i) + v.ChunkDuration/2

	s.feedPredictor()
	// The predictor is asked for the view at the interval's projected
	// wall deadline: while playback is realtime, wall time and content
	// time advance together, so this is the head position when the
	// interval displays.
	pred := s.predictor.Predict(deadline)

	// The super chunk (§3.1.2) covers the predicted FoV; a FoV-agnostic
	// session's is the whole panorama.
	sc := &s.plan
	if s.cfg.Mode == FoVAgnostic {
		*sc = abr.SuperChunk{Interval: i, Start: v.ChunkStart(i), Tiles: sc.Tiles[:0], Prediction: pred}
		for t := tiling.TileID(0); int(t) < v.Grid.Tiles(); t++ {
			sc.Tiles = append(sc.Tiles, t)
		}
	} else {
		*sc = abr.BuildSuperChunk(s.view, pred, i, v.ChunkDuration, sc.Tiles)
	}

	// Part one: regular VRA over the super chunk.
	effectiveBW := s.est.Estimate()
	if s.cfg.BandwidthBudget > 0 && (effectiveBW == 0 || s.cfg.BandwidthBudget < effectiveBW) {
		effectiveBW = s.cfg.BandwidthBudget
	}
	ctx := abr.Context{
		EstimatedBandwidth: effectiveBW,
		Buffer:             s.bufferLevel(),
		MaxBuffer:          s.cfg.PredictionWindow,
		ChunkDuration:      v.ChunkDuration,
		Ladder:             v.Ladder,
		LastQuality:        s.lastQuality(i),
		SizeAt:             func(q int) int64 { return sc.SizeAt(v, q) },
	}
	q := s.cfg.Algorithm.ChooseQuality(ctx)
	s.fovQuality[i] = q
	s.emit(EventPlanned, i, -1, q, 0, 0)

	for _, id := range sc.Tiles {
		s.submitFetch(i, id, q, transport.ClassFoV, false, 1.0, deadline)
	}

	// Part two: OOS rings (FoV-guided only). Under a user bandwidth
	// budget, OOS fetching spends only what the FoV left over.
	if s.cfg.Mode == FoVGuided {
		oosPolicy := s.cfg.OOS
		if s.cfg.BandwidthBudget > 0 {
			remaining := int64(s.cfg.BandwidthBudget*v.ChunkDuration.Seconds()/8) - sc.SizeAt(v, q)
			if remaining < 0 {
				remaining = 1 // poorest-effort OOS: effectively nothing fits
			}
			if oosPolicy.BudgetBytes == 0 || remaining < oosPolicy.BudgetBytes {
				oosPolicy.BudgetBytes = remaining
			}
		}
		plan := abr.PlanOOS(abr.OOSInput{
			Grid:       v.Grid,
			FoVTiles:   sc.Tiles,
			FoVQuality: q,
			Prediction: pred,
			Heatmap:    s.cfg.Heatmap,
			At:         contentMid,
			SizeAt: func(tile tiling.TileID, qq int) int64 {
				return v.SpanBytes(v.Encoding, 0, qq, tile, v.ChunkStart(i))
			},
		}, oosPolicy)
		for _, tq := range plan {
			s.submitFetch(i, tq.Tile, tq.Quality, transport.ClassOOS, false, tq.Probability, deadline)
		}
	}
}

// lastQuality returns the most recent planned FoV quality before i, or
// -1.
func (s *Session) lastQuality(i int) int {
	for j := i - 1; j >= 0 && j >= i-3; j-- {
		if q, ok := s.fovQuality[j]; ok {
			return q
		}
	}
	return -1
}

// pickEncoding chooses the per-chunk encoding: the video's own in plain
// sessions; the cheaper expected form in hybrid sessions (§3.1.2),
// using the tile's display/upgrade probability.
func (s *Session) pickEncoding(q int, id tiling.TileID, start time.Duration,
	class transport.Class, prob float64) media.Encoding {
	v := s.cfg.Video
	if !s.cfg.HybridSVC || v.Encoding != media.EncodingSVC || s.cfg.Mode != FoVGuided {
		return v.Encoding
	}
	// FoV tiles rarely upgrade (they are already at target); OOS tiles
	// upgrade exactly when they drift into view, i.e. with their display
	// probability.
	upgradeProb := 0.1
	if class == transport.ClassOOS {
		upgradeProb = prob
	}
	to := q + 2
	if to >= v.Qualities() {
		to = v.Qualities() - 1
	}
	enc := abr.HybridChoice(upgradeProb,
		v.SpanBytes(media.EncodingAVC, 0, q, id, start),
		v.SpanBytes(media.EncodingSVC, 0, q, id, start),
		v.SpanBytes(media.EncodingAVC, q+1, to, id, start),
		v.SpanBytes(media.EncodingSVC, q+1, to, id, start))
	if enc == media.EncodingAVC {
		s.rep.HybridAVCFetches++
	} else {
		s.rep.HybridSVCFetches++
	}
	return enc
}

func (s *Session) submitFetch(i int, id tiling.TileID, q int, class transport.Class,
	urgent bool, prob float64, deadline time.Duration) {
	v := s.cfg.Video
	ts := s.tile(i, id)
	if ts.pending || ts.quality >= q {
		return
	}
	ts.pending = true
	start := v.ChunkStart(i)
	enc := s.pickEncoding(q, id, start, class, prob)
	bytes := v.SpanBytes(enc, 0, q, id, start)
	if bytes <= 0 {
		ts.pending = false
		return
	}
	if urgent {
		s.rep.UrgentFetches++
		s.emit(EventUrgent, i, id, q, bytes, 0)
	}
	f := s.newFetch(ts, i)
	f.req = transport.Request{
		Chunk:       tiling.ChunkID{Quality: q, Tile: id, Start: start},
		Bytes:       bytes,
		Encoding:    enc,
		Deadline:    deadline,
		Class:       class,
		Urgent:      urgent,
		Probability: prob,
		OnDone:      f.req.OnDone,
		Ctx:         s.ctx,
	}
	s.sched.Submit(&f.req)
}

// fetch is one chunk request on its way, with what its completion has
// to know beyond the request itself. The session owns the records: one
// is minted when none is free, its OnDone is bound to its done method
// then and never again, and done hands the record back before it does
// anything else, so a session holds as many records as it ever had
// requests outstanding at once. This leans on the transport contract
// that OnDone is called once and is the scheduler's last touch of the
// Request (see transport.Request.OnDone).
type fetch struct {
	req transport.Request
	s   *Session

	ts       *tileState
	interval int
	next     *fetch
}

// newFetch takes a record off the free list, or mints one, for a
// request about tile state ts of interval i. The caller fills f.req,
// keeping its OnDone.
func (s *Session) newFetch(ts *tileState, i int) *fetch {
	f := s.freeFetch
	if f == nil {
		f = &fetch{s: s}
		f.req.OnDone = f.done
	} else {
		s.freeFetch = f.next
	}
	f.ts, f.interval = ts, i
	return f
}

// done is every request's OnDone. A request that starts above quality
// 0 is an incremental upgrade (§3.1.2 part three).
func (f *fetch) done(d netem.Delivery, _ bool) {
	s, ts, i := f.s, f.ts, f.interval
	id, q, enc, upgrade := f.req.Chunk.Tile, f.req.Chunk.Quality, f.req.Encoding, f.req.From > 0
	// The record is free from here on: whatever this delivery makes the
	// session submit next goes out in it.
	f.next, s.freeFetch = s.freeFetch, f

	ts.pending = false
	s.est.Add(d.Throughput())
	s.rep.BytesFetched += d.Bytes
	s.col.Fetched(d.Bytes)
	switch {
	case !d.OK && upgrade:
		return // the tile keeps the copy it had
	case !d.OK:
		s.col.Wasted(d.Bytes)
		s.rep.BytesWasted += d.Bytes
		s.emit(EventDropped, i, id, q, d.Bytes, 0)
		return // best-effort loss: tile stays at its old quality
	case upgrade:
		s.emit(EventUpgraded, i, id, q, d.Bytes, 0)
	default:
		s.emit(eventFetched, i, id, q, d.Bytes, 0)
	}
	// The chunk counts for its tile: an upgrade raises the tile to q; a
	// first fetch becomes the tile's copy unless a better one landed
	// first.
	if !upgrade && q <= ts.quality {
		return
	}
	ts.quality = q
	ts.bytes += d.Bytes
	if upgrade {
		s.rep.Upgrades++
	} else {
		ts.enc = enc
	}
}

// ---- part three: incremental upgrades ----

func (s *Session) checkUpgrades() {
	v := s.cfg.Video
	now := s.clock.Now()
	s.feedPredictor()
	horizon := 2 * v.ChunkDuration
	for i := s.playIdx; i < s.chunks; i++ {
		deadline := s.deadlineWall(i)
		if deadline <= now {
			continue
		}
		if deadline > now+horizon {
			break
		}
		if !s.planned[i] {
			continue
		}
		pred := s.predictor.Predict(deadline)
		target := s.fovQuality[i]
		prob := 1 - pred.Radius/120
		if prob < 0.05 {
			prob = 0.05
		}
		if prob > 0.99 {
			prob = 0.99
		}
		s.upgradeTiles = s.view.AppendVisible(s.upgradeTiles[:0], pred.View)
		for _, id := range s.upgradeTiles {
			ts := s.tile(i, id)
			if ts.pending {
				continue
			}
			if ts.quality < 0 {
				// HMP correction: a tile we never fetched is now expected
				// in view — rush it at base-or-better quality (Table 1
				// urgent chunk).
				q := target - 1
				if q < 0 {
					q = 0
				}
				s.submitFetch(i, id, q, transport.ClassFoV, true, prob, deadline)
				continue
			}
			if ts.quality >= target {
				continue
			}
			req := abr.UpgradeRequest{
				BytesNeeded:        v.SpanBytes(ts.enc, ts.quality+1, target, id, v.ChunkStart(i)),
				TimeToDeadline:     deadline - now,
				DisplayProbability: prob,
				QualityGain:        target - ts.quality,
			}
			switch abr.DecideUpgrade(req, s.est.Estimate()) {
			case abr.UpgradeNow:
				s.executeUpgrade(i, id, ts, target, deadline)
			case abr.UpgradeDefer:
				s.rep.UpgradesDeferred++
			case abr.UpgradeSkip:
				s.rep.UpgradesSkipped++
			}
		}
	}
}

func (s *Session) executeUpgrade(i int, id tiling.TileID, ts *tileState, target int, deadline time.Duration) {
	v := s.cfg.Video
	bytes := v.SpanBytes(ts.enc, ts.quality+1, target, id, v.ChunkStart(i))
	if bytes <= 0 {
		return
	}
	if ts.enc == media.EncodingAVC {
		// The AVC re-fetch makes the previously downloaded bytes waste —
		// the §3.1.1 mismatch.
		s.col.Wasted(ts.bytes)
		s.rep.BytesWasted += ts.bytes
		ts.bytes = 0
	}
	ts.pending = true
	urgent := deadline-s.clock.Now() < v.ChunkDuration
	f := s.newFetch(ts, i)
	f.req = transport.Request{
		Chunk:    tiling.ChunkID{Quality: target, Tile: id, Start: v.ChunkStart(i)},
		Bytes:    bytes,
		Encoding: ts.enc,
		From:     ts.quality + 1,
		Deadline: deadline,
		Class:    transport.ClassFoV,
		Urgent:   urgent,
		OnDone:   f.req.OnDone,
		Ctx:      s.ctx,
	}
	s.sched.Submit(&f.req)
}

// ---- playback ----

// maxStall caps one rebuffering wait; after it the interval plays with
// blank tiles.
const maxStall = 10 * time.Second

func (s *Session) playInterval(i int, stallSince time.Duration) {
	v := s.cfg.Video
	if s.canceled() || i >= s.chunks {
		s.clock.Halt()
		return
	}
	now := s.clock.Now()
	view := s.head.At(now)
	s.playTiles = s.view.AppendVisible(s.playTiles[:0], view)
	visible := s.playTiles

	missing := 0
	for _, id := range visible {
		st := s.tracked(i, id)
		if st == nil || st.quality < 0 {
			if st == nil || !st.pending {
				// Rush the gap at base quality.
				s.submitFetch(i, id, 0, transport.ClassFoV, true, 1, now)
			}
			missing++
		}
	}
	stalledFor := now - stallSince
	if missing > 0 && stalledFor < maxStall {
		// Wait for the urgent fetches; re-check shortly.
		s.clock.After(100*time.Millisecond, func() { s.playInterval(i, stallSince) })
		return
	}

	// Account the wait.
	if stalledFor > 0 {
		if !s.started {
			s.rep.StartupDelay = now
		} else {
			s.col.Stall(stalledFor)
			s.emit(EventStall, i, -1, 0, 0, stalledFor)
		}
	}
	s.started = true
	s.playIdx = i
	s.nextPlayWall = now + v.ChunkDuration

	// Render: per-tile qualities over the visible tiles.
	var shown [64]int // on the stack for any FoV of up to 64 tiles
	shownQ := shown[:0]
	blanks := 0
	for _, id := range visible {
		st := s.tracked(i, id)
		if st == nil || st.quality < 0 {
			blanks++
			continue
		}
		shownQ = append(shownQ, st.quality)
	}
	meanQ := 0.0
	for _, q := range shownQ {
		meanQ += float64(q)
	}
	if len(shownQ) > 0 {
		meanQ /= float64(len(shownQ))
	}
	playDur := s.playDur(i)
	s.emit(EventPlay, i, -1, int(meanQ+0.5), 0, playDur)
	if len(shownQ) > 0 {
		s.col.PlayTiles(playDur, shownQ)
	} else {
		// An entirely blank FoV still consumes play time (at quality 0).
		s.col.Play(playDur, 0)
	}
	if blanks > 0 && len(visible) > 0 {
		s.col.Blank(playDur * time.Duration(blanks) / time.Duration(len(visible)))
	}

	// Waste accounting input: every tile visible at any of four probe
	// points during the play span counts as rendered.
	n := v.Grid.Tiles()
	ever := s.visibleEver[i*n : (i+1)*n]
	for _, id := range visible { // the first probe is the view rendered above
		ever[id] = true
	}
	for k := 1; k < 4; k++ {
		probe := now + time.Duration(k)*v.ChunkDuration/4
		s.view.Mark(s.head.At(probe), ever)
	}

	s.clock.Schedule(s.nextPlayWall, func() { s.playInterval(i+1, s.nextPlayWall) })
}

// playDur is the actual play duration of interval i (the final
// interval may be partial).
func (s *Session) playDur(i int) time.Duration {
	v := s.cfg.Video
	start := v.ChunkStart(i)
	if start+v.ChunkDuration > v.Duration {
		return v.Duration - start
	}
	return v.ChunkDuration
}

// accountWaste charges every fetched-but-never-rendered byte after the
// session.
func (s *Session) accountWaste() {
	// Integer sums, so the order of the walk does not show in them.
	for k, ts := range s.state {
		if !ts.tracked || ts.bytes == 0 {
			continue
		}
		if !s.visibleEver[k] {
			s.col.Wasted(ts.bytes)
			s.rep.BytesWasted += ts.bytes
		}
	}
}
