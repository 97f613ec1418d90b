package serve

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"time"

	"sperke/internal/core"
	"sperke/internal/dash"
	"sperke/internal/media"
	"sperke/internal/netem"
	"sperke/internal/obs"
	"sperke/internal/sim"
	"sperke/internal/trace"
	"sperke/internal/transport"
)

// Each viewer's emulated access link: its rate and one-way delay.
const (
	accessBPS   = 25e6
	propagation = 20 * time.Millisecond
)

// EngineConfig sizes a concurrent-viewer run. The zero value is not
// usable: Video is required.
type EngineConfig struct {
	// Video every simulated viewer streams.
	Video *media.Video
	// Sessions is the number of simulated viewers (default 1).
	Sessions int
	// Workers bounds how many sessions run concurrently (default
	// GOMAXPROCS, capped at Sessions). Per-session results are a pure
	// function of the seed, so the worker count changes only wall-clock
	// time, never the reported QoE.
	Workers int
	// BaseSeed seeds viewer i with BaseSeed+i, so every session draws
	// from its own deterministic stream.
	BaseSeed int64
	// Client, when set, exercises a real DASH origin: every chunk the
	// simulated planner fetches is also downloaded over HTTP (hitting
	// the server's chunk store) and its wall latency recorded. The HTTP
	// leg is observation-only — delivery timing that drives QoE still
	// comes from the emulated path, so results stay deterministic.
	Client *dash.Client
	// Obs receives the engine's instruments (fetch latency histogram,
	// session/error counters) and is threaded into every session. Nil
	// means a private registry.
	Obs *obs.Registry
}

// SessionResult is one viewer's outcome, in launch order.
type SessionResult struct {
	Index int
	Seed  int64
	// Err is non-nil when the session could not be constructed; Report
	// is zero then.
	Err    error
	Report core.Report
}

// Aggregate summarizes QoE across completed sessions.
type Aggregate struct {
	Sessions int
	// MeanQuality and MeanScore average the per-session mean FoV
	// quality and QoE score.
	MeanQuality float64
	MeanScore   float64
	// Stalls, StallTime and BlankTime sum across sessions.
	Stalls    int
	StallTime time.Duration
	BlankTime time.Duration
	// BytesFetched and BytesWasted sum wire usage across sessions.
	BytesFetched  int64
	BytesWasted   int64
	UrgentFetches int
}

// EngineResult is one Run's outcome.
type EngineResult struct {
	// Sessions holds per-viewer results indexed by launch order.
	Sessions []SessionResult
	Agg      Aggregate
	// FetchLatency summarizes the wall latency of every HTTP chunk fetch
	// in the run, in milliseconds (zero when no Client was configured).
	FetchLatency obs.HistogramStat
	// HTTPFetches and HTTPErrors count the HTTP leg's outcomes.
	HTTPFetches int64
	HTTPErrors  int64
	// Wall is the run's wall-clock duration.
	Wall time.Duration
}

// engineMetrics caches the engine's instruments.
type engineMetrics struct {
	fetchMS  *obs.Histogram
	fetches  *obs.Counter
	errors   *obs.Counter
	sessions *obs.Counter
}

// Engine runs K simulated viewers over a worker pool. Each viewer is a
// full core.Session on its own sim clock and emulated path; sessions
// share nothing but the (thread-safe) obs registry and, optionally, one
// DASH origin exercised over HTTP. Because every per-session input is
// derived from BaseSeed+i, a run's per-session reports are byte-stable
// across worker counts — concurrency buys wall-clock time only.
type Engine struct {
	cfg EngineConfig
	reg *obs.Registry
	met engineMetrics
}

// NewEngine validates the config and applies defaults.
func NewEngine(cfg EngineConfig) (*Engine, error) {
	if cfg.Video == nil {
		return nil, fmt.Errorf("serve: engine config: %w", errNilVideo)
	}
	if cfg.Sessions <= 0 {
		cfg.Sessions = 1
	}
	if cfg.Workers <= 0 {
		cfg.Workers = runtime.GOMAXPROCS(0)
	}
	if cfg.Workers > cfg.Sessions {
		cfg.Workers = cfg.Sessions
	}
	reg := cfg.Obs
	if reg == nil {
		reg = obs.NewRegistry()
	}
	return &Engine{
		cfg: cfg,
		reg: reg,
		met: engineMetrics{
			fetchMS:  reg.Histogram("serve.engine.fetch_ms"),
			fetches:  reg.Counter("serve.engine.http_fetches"),
			errors:   reg.Counter("serve.engine.http_errors"),
			sessions: reg.Counter("serve.engine.sessions"),
		},
	}, nil
}

var errNilVideo = fmt.Errorf("nil video")

// Run drives all sessions to completion (or ctx cancellation — each
// session observes ctx at its planning and playback ticks and returns a
// partial report) and aggregates the outcome.
func (e *Engine) Run(ctx context.Context) EngineResult {
	wall := obs.NewWall()
	results := make([]SessionResult, e.cfg.Sessions)
	idxCh := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < e.cfg.Workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idxCh {
				results[i] = e.runOne(ctx, i)
				e.met.sessions.Inc()
			}
		}()
	}
	for i := 0; i < e.cfg.Sessions; i++ {
		idxCh <- i
	}
	close(idxCh)
	wg.Wait()

	res := EngineResult{Sessions: results, Wall: wall.Now()}
	maxQ := e.cfg.Video.Qualities() - 1
	for _, sr := range results {
		if sr.Err != nil {
			continue
		}
		m := sr.Report.QoE
		res.Agg.Sessions++
		res.Agg.MeanQuality += m.MeanQuality()
		res.Agg.MeanScore += m.Score(maxQ)
		res.Agg.Stalls += m.Stalls
		res.Agg.StallTime += m.StallTime
		res.Agg.BlankTime += m.BlankTime
		res.Agg.BytesFetched += sr.Report.BytesFetched
		res.Agg.BytesWasted += sr.Report.BytesWasted
		res.Agg.UrgentFetches += sr.Report.UrgentFetches
	}
	if n := float64(res.Agg.Sessions); n > 0 {
		res.Agg.MeanQuality /= n
		res.Agg.MeanScore /= n
	}
	res.FetchLatency = e.met.fetchMS.Stat()
	res.HTTPFetches = e.met.fetches.Value()
	res.HTTPErrors = e.met.errors.Value()
	return res
}

// sessionTrace builds viewer i's head trace with trace.Draw, the one
// simulated-viewer head recipe: motion seeded from BaseSeed+i,
// attention from BaseSeed+i+60, over the video plus a 10s tail. runOne
// and SessionTraces both call it, so SessionTraces returns exactly the
// heads the run will simulate.
func sessionTrace(cfg EngineConfig, i int) *trace.HeadTrace {
	seed := cfg.BaseSeed + int64(i)
	return trace.Draw(seed, seed+60, trace.UserProfile{}, cfg.Video.Duration+10*time.Second)
}

// SessionTraces regenerates the head traces an engine built from cfg
// will drive, without running anything: the viewers a crowd heatmap
// (hmp.BuildHeatmap) is built from. Sessions defaults to 1 as in
// NewEngine, so passing the identical cfg yields the identical traces.
func SessionTraces(cfg EngineConfig) []*trace.HeadTrace {
	if cfg.Video == nil {
		return nil
	}
	if cfg.Sessions <= 0 {
		cfg.Sessions = 1
	}
	traces := make([]*trace.HeadTrace, cfg.Sessions)
	for i := range traces {
		traces[i] = sessionTrace(cfg, i)
	}
	return traces
}

// runOne builds and runs viewer i. Its head comes from trace.Draw, as
// every experiment viewer's does; the session is built here, beside
// the HTTP mirror that wraps its scheduler.
func (e *Engine) runOne(ctx context.Context, i int) SessionResult {
	seed := e.cfg.BaseSeed + int64(i)
	v := e.cfg.Video
	clock := sim.NewClock(seed)
	path := netem.NewPath(clock, "net", netem.Constant(accessBPS), propagation, 0)
	var sched transport.Scheduler = transport.NewSinglePath(clock, path)
	if e.cfg.Client != nil {
		sched = &httpMirror{
			ctx:    ctx,
			inner:  sched,
			client: e.cfg.Client,
			video:  v,
			met:    &e.met,
			wall:   obs.NewWall(),
		}
	}
	head := sessionTrace(e.cfg, i)
	s, err := core.NewSession(clock, core.Config{Video: v}, head, sched, core.WithObs(e.reg))
	if err != nil {
		return SessionResult{Index: i, Seed: seed, Err: fmt.Errorf("serve: session %d: %w", i, err)}
	}
	return SessionResult{Index: i, Seed: seed, Report: s.RunContext(ctx)}
}

// httpMirror wraps a sim scheduler so every submitted request is also
// fetched from a real DASH origin over HTTP, as the request names
// itself: an SVC request is one layer exchange per layer From through
// Chunk.Quality, any other one whole-chunk exchange at Chunk.Quality.
// The mirror fetch happens before the sim submission and its outcome
// feeds only metrics; QoE timing stays with the emulated path, which
// keeps the run deterministic while still exercising the server's chunk
// store under genuine concurrency.
type httpMirror struct {
	// ctx is the engine run's context, which is also the one the
	// session runs — and so submits — under. The mirror fetches under
	// it: canceling the run aborts in-flight mirror HTTP requests
	// instead of leaving them fetching chunks nobody will record.
	ctx    context.Context
	inner  transport.Scheduler
	client *dash.Client
	video  *media.Video
	met    *engineMetrics
	wall   *obs.Wall
}

// Name implements transport.Scheduler.
func (m *httpMirror) Name() string { return m.inner.Name() + "+http" }

// Submit implements transport.Scheduler.
func (m *httpMirror) Submit(r *transport.Request) {
	m.mirror(r)
	m.inner.Submit(r)
}

func (m *httpMirror) mirror(r *transport.Request) {
	fetch, from := m.client.FetchChunk, r.Chunk.Quality
	if r.Encoding == media.EncodingSVC {
		fetch, from = m.client.FetchLayer, r.From
	}
	idx := int(r.Chunk.Start / m.video.ChunkDuration)
	for q := from; q <= r.Chunk.Quality && m.ctx.Err() == nil; q++ {
		start := m.wall.Now()
		_, err := fetch(m.ctx, m.video.ID, q, int(r.Chunk.Tile), idx)
		m.met.fetchMS.Observe(float64(m.wall.Now()-start) / float64(time.Millisecond))
		m.met.fetches.Inc()
		if err != nil {
			m.met.errors.Inc()
		}
	}
}
