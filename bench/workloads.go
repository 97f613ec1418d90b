package main

import (
	"fmt"
	"hash/fnv"
	"math"
	"runtime"
	"sort"
	"time"

	"sperke/internal/core"
	"sperke/internal/media"
	"sperke/internal/obs"
)

// sizes fixes how much work a workload does. They are constants of the
// benchmark: nothing here is derived from measured speed at run time. A
// run of --seconds S does S times the workload's rate of work, however
// long that takes, so a parent and its change are measured over the
// very same requests.
type sizes struct {
	warmVideo    time.Duration // origin_warm: every chunk resident
	longVideo    time.Duration // origin_cold, cluster_crowd
	simVideo     time.Duration // viewer_sim
	originBudget int64         // origin store of origin_warm and cluster_crowd
	coldBudget   int64         // origin store of origin_cold
	nodeBudget   int64         // each cluster_crowd edge
	listLen      int           // uniform request-list length (replayed cyclically)
	coldWarmup   int           // requests that bring origin_cold's store to its budget
	crowdViewers int           // viewers merged into the crowd replay
	crowdWarmup  int           // requests that open cluster_crowd's connections
	warmRate     float64       // timed requests per second of --seconds, origin_warm
	coldRate     float64       // the same, origin_cold
	crowdRate    float64       // the same, cluster_crowd
	simRate      float64       // simulated sessions per second of --seconds, viewer_sim
	simRef       int           // sessions checked against serve.Engine
	setups       int           // set-ups per run; setup_s is their median
	rounds       int           // rounds of a timed serving phase
	simRound     int           // sessions in a round of viewer_sim's timed phase
	openLoopRate float64       // origin_warm open-loop phase, requests/s
	openLoopFor  time.Duration
}

// The rates are what this box does in a quiet minute, so a run of
// --seconds S measures for about S seconds here.
var fullSizes = sizes{
	warmVideo: 60 * time.Second, longVideo: 5 * time.Minute, simVideo: time.Minute,
	originBudget: 256 << 20, coldBudget: 32 << 20, nodeBudget: 64 << 20,
	listLen: 400_000, coldWarmup: 6000, crowdViewers: 48, crowdWarmup: 1000,
	warmRate: 12000, coldRate: 9000, crowdRate: 5500, simRate: 96,
	simRef: 32, setups: 3, rounds: 100, simRound: 12,
	openLoopRate: 4000, openLoopFor: 3 * time.Second,
}

// smokeSizes is the scaled-down set bench_test.go runs every workload
// through: same code, seconds instead of minutes.
var smokeSizes = sizes{
	warmVideo: 8 * time.Second, longVideo: 20 * time.Second, simVideo: 20 * time.Second,
	originBudget: 256 << 20, coldBudget: 2 << 20, nodeBudget: 8 << 20,
	listLen: 20_000, coldWarmup: 100, crowdViewers: 8, crowdWarmup: 50,
	warmRate: 4000, coldRate: 4000, crowdRate: 4000, simRate: 20,
	simRef: 2, setups: 1, rounds: 5, simRound: 5,
	openLoopRate: 1000, openLoopFor: 200 * time.Millisecond,
}

// workload is one named traffic mix. The names are fixed: later changes
// cite them.
type workload struct {
	name string
	why  string
	run  func(p params) (result, error)
}

// params is one invocation of one workload.
type params struct {
	seed    int64
	seconds float64
	traced  bool
	sz      sizes
	outDir  string // where the traced pass writes its spans
}

// result is what one invocation reports.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

var workloads = []workload{
	{
		name: "origin_warm",
		why:  "every chunk resident: per-request fixed cost (net/http, mux, client read+decode, obs) does all the work, synthesis and eviction none",
		run: servingWorkload{name: "origin_warm", rate: func(sz sizes) float64 { return sz.warmRate }, openLoop: true, setup: func(seed int64, sz sizes, t *tracer) (*system, []chunkReq, int, error) {
			video := newVideo(sz.warmVideo)
			sys, err := newSystem(video, sz.originBudget, 0, 0, t)
			if err != nil {
				return nil, nil, 0, err
			}
			// Fetch every key once, so every timed request is a store hit.
			var all []chunkReq
			for q := 0; q < video.Qualities(); q++ {
				for tile := 0; tile < video.Grid.Tiles(); tile++ {
					for idx := 0; idx < video.NumChunks(); idx++ {
						all = append(all, chunkReq{int32(q), int32(tile), int32(idx)})
					}
				}
			}
			if err := sys.fetchAll(all); err != nil {
				sys.close()
				return nil, nil, 0, err
			}
			return sys, uniformList(seed, video, sz.listLen), 0, nil
		}}.run,
	},
	{
		name: "origin_cold",
		why:  "working set 30x the store: nearly every request is a miss, so singleflight, two-pass synthesis, insert and LRU eviction carry the delta over origin_warm",
		run: servingWorkload{name: "origin_cold", rate: func(sz sizes) float64 { return sz.coldRate }, setup: func(seed int64, sz sizes, t *tracer) (*system, []chunkReq, int, error) {
			video := newVideo(sz.longVideo)
			sys, err := newSystem(video, sz.coldBudget, 0, 0, t)
			if err != nil {
				return nil, nil, 0, err
			}
			list := uniformList(seed, video, sz.listLen)
			// Fill the store to its budget so eviction runs from the first
			// timed request.
			if err := sys.fetchAll(list[:sz.coldWarmup]); err != nil {
				sys.close()
				return nil, nil, 0, err
			}
			return sys, list, sz.coldWarmup, nil
		}}.run,
	},
	{
		name: "cluster_crowd",
		why:  "a synchronized crowd replayed through a 3-edge wire cluster, R=2: router walk, coalescer, proxy hop, edge stores, warm queue and origin fallback in the proportions real viewers produce",
		run: servingWorkload{name: "cluster_crowd", rate: func(sz sizes) float64 { return sz.crowdRate }, simSetup: true, setup: func(seed int64, sz sizes, t *tracer) (*system, []chunkReq, int, error) {
			video := newVideo(sz.longVideo)
			list, err := crowdReplay(seed, video, sz.crowdViewers)
			if err != nil {
				return nil, nil, 0, err
			}
			if len(list) <= sz.crowdWarmup {
				return nil, nil, 0, fmt.Errorf("bench: crowd replay made only %d requests", len(list))
			}
			sys, err := newSystem(video, sz.originBudget, 3, sz.nodeBudget, t)
			if err != nil {
				return nil, nil, 0, err
			}
			if err := sys.fetchAll(list[:sz.crowdWarmup]); err != nil {
				sys.close()
				return nil, nil, 0, err
			}
			return sys, list, sz.crowdWarmup, nil
		}}.run,
	},
	{
		name: "viewer_sim",
		why:  "pure client-side simulation (core, abr, hmp, tiling, sphere, netem, transport, trace, sim): no serving layer runs, so serving changes must leave it flat",
		run:  runViewerSim,
	},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// ---- serving workloads ----

type servingWorkload struct {
	name string
	// rate is the timed requests per second of --seconds.
	rate     func(sz sizes) float64
	openLoop bool
	// simSetup says set-up is mostly simulation (the crowd replay), so
	// setup_s is calibrated against simKernel, not the exchange.
	simSetup bool
	// setup builds everything that exists before the first timed
	// request — catalog, stores, listeners, request list, resident fill
	// or warm-up — and returns the position of that request in the list.
	setup func(seed int64, sz sizes, t *tracer) (*system, []chunkReq, int, error)
}

func (w servingWorkload) run(p params) (result, error) {
	if p.traced {
		return w.runTraced(p)
	}
	yard, err := newExchanger()
	if err != nil {
		return result{}, err
	}
	defer yard.stop()
	setupYard := yard.yardstick()
	if w.simSetup {
		setupYard = kernelYard
	}
	var (
		sys   *system
		list  []chunkReq
		first int
	)
	setupS, err := timeSetups(p.sz.setups, setupYard, func() (err error) {
		if sys != nil {
			sys.close()
			sys, list = nil, nil
			runtime.GC()
		}
		sys, list, first, err = w.setup(p.seed, p.sz, nil)
		return err
	})
	if err != nil {
		return result{}, err
	}
	defer sys.close()
	l := newLoader(sys, list, first, nil, yard.yardstick())
	if err := l.run(p.sz.rounds, w.requests(p)); err != nil {
		return result{}, err
	}
	m := metricSet{"setup_s": setupS}
	l.endToEndMetrics(m)
	m["peak_rss_MB"] = peakRSSMB()
	logRaw(w.name, l.rawMetrics)
	return result{Correct: l.failed == 0, Attempted: l.attempted, Failed: l.failed, Metrics: m.render(endToEnd)}, nil
}

// requests is how many requests the timed phase of a run makes.
func (w servingWorkload) requests(p params) int {
	return max(2*p.sz.rounds, int(p.seconds*w.rate(p.sz)))
}

// timeSetups runs setup n times, each timed in calibrated seconds, and
// returns the median. setup tears down what its previous call built.
func timeSetups(n int, y yardstick, setup func() error) (float64, error) {
	took := make([]float64, n)
	yard, err := y.aroundEach(n, func(k int) error {
		start := time.Now()
		err := setup()
		took[k] = time.Since(start).Seconds()
		return err
	})
	if err != nil {
		return 0, err
	}
	for k := range took {
		took[k] *= y.scale(yard[k])
	}
	return median(took), nil
}

// logRaw notes what a run's calibrated figures were computed from.
func logRaw(name string, rawMetrics func(metricSet)) {
	m := metricSet{}
	rawMetrics(m)
	fmt.Fprintf(logOut, "bench: %s: as measured goodput_rps %.1f fetch_p50_ms %.4f, yardstick %.1f us\n",
		name, m["raw.goodput_rps"], m["raw.fetch_p50_ms"], m["yardstick.cost_us"])
}

// spanMetrics reports every named span's self times and its calls per
// unit of work (per request, or per simulated viewer-second).
func spanMetrics(m metricSet, an analysis, names []string, per string, units float64) {
	for _, name := range names {
		if st := an.layers[name]; st != nil {
			m[name+".self_us_p50"] = st.selfP50us
			m[name+".self_us_p99"] = st.selfP99us
			m[name+".calls_per_"+per] = float64(st.calls) / units
		}
	}
	m["trace.residual_share"] = an.residual
}

// runTraced measures the per-layer metrics: an untraced pass over half a
// run's requests gives the counts and costs, then a fresh stack with
// span decorators at its public seams replays exactly the same requests.
func (w servingWorkload) runTraced(p params) (result, error) {
	yard, err := newExchanger()
	if err != nil {
		return result{}, err
	}
	defer yard.stop()
	m := metricSet{}
	plain, plainCounts, err := w.plainPass(p, m, yard)
	if err != nil {
		return result{}, err
	}
	runtime.GC()
	traced, err := w.tracedPass(p, m, yard, plain, plainCounts)
	if err != nil {
		return result{}, err
	}
	attempted, failed := plain.attempted+traced.attempted, plain.failed+traced.failed
	m["error_share"] = float64(failed) / float64(attempted)
	return result{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: m.render(perLayer)}, nil
}

// plainPass runs half a run's requests untraced and reads
// the counts and costs that need no spans. It returns the finished
// loader (how many requests it made, what they cost) and the counts the
// traced pass must reproduce.
func (w servingWorkload) plainPass(p params, m metricSet, yard *exchanger) (*loader, metricSet, error) {
	sys, list, first, err := w.setup(p.seed, p.sz, nil)
	if err != nil {
		return nil, nil, err
	}
	defer sys.close()
	l := newLoader(sys, list, first, nil, yard.yardstick())
	var gc0, gc1 runtime.MemStats
	runtime.ReadMemStats(&gc0)
	if err := l.run(p.sz.rounds, w.requests(p)/2); err != nil {
		return nil, nil, err
	}
	runtime.ReadMemStats(&gc1)
	counts := metricSet{}
	sys.layerCounts(counts)
	for k, v := range counts {
		m[k] = v
	}
	l.rawMetrics(m)
	m["proc.gc_cycles"] = float64(gc1.NumGC - gc0.NumGC)
	m["proc.gc_pause_ms"] = float64(gc1.PauseTotalNs-gc0.PauseTotalNs) / 1e6
	m["client.fetch_p50_us.q0"] = median(l.latQ0) * 1e3
	m["client.fetch_p50_us.q5"] = median(l.latQ5) * 1e3
	m["media.synth.ns_per_byte"] = synthNsPerByte(sys.video, list)
	if w.openLoop {
		m["openloop.p50_ms"], m["openloop.p99_ms"], m["openloop.gen_late_max_ms"] = l.openLoop(p.sz.openLoopRate, p.sz.openLoopFor)
	}
	m["proc.goroutines_end"] = float64(runtime.NumGoroutine())
	return l, counts, nil
}

// tracedPass replays the requests plain made through a decorated stack
// and turns the spans into per-layer metrics. It fails unless the
// decorated stack's own counters agree with the undecorated one's.
func (w servingWorkload) tracedPass(p params, m metricSet, yard *exchanger, plain *loader, plainCounts metricSet) (*loader, error) {
	t := newTracer()
	sys, list, first, err := w.setup(p.seed, p.sz, t)
	if err != nil {
		return nil, err
	}
	defer sys.close()
	l := newLoader(sys, list, first, t, yard.yardstick())
	n := w.requests(p) / 2
	t.on.Store(true)
	err = l.run(p.sz.rounds, n)
	t.on.Store(false)
	if err != nil {
		return nil, err
	}
	counts := metricSet{}
	sys.layerCounts(counts)
	if err := sameCounts(plainCounts, counts); err != nil {
		return nil, fmt.Errorf("bench: %s: the traced pass took another path than the untraced one: %w", w.name, err)
	}
	if err := checkParents(t.spans); err != nil {
		return nil, err
	}
	spanMetrics(m, analyze(t.spans, "client"), servingSpans, "req", float64(n))
	before, after := metricSet{}, metricSet{}
	plain.endToEndMetrics(before)
	l.endToEndMetrics(after)
	m["trace.overhead_share"] = after["fetch_p50_ms"]/before["fetch_p50_ms"] - 1
	return l, writeSpans(p.outDir, w.name, t.spans)
}

// comparedCounts must agree between the untraced pass and the traced
// replay of the same requests. cluster.requests is exact; the rest may
// differ by the few requests whose outcome depends on how two
// connections interleave (which of two same-key requests arrives first,
// the LRU order around an eviction). Coalesced, singleflight-shared and
// warm counts depend on that interleaving by design and are reported,
// not compared.
var comparedCounts = []string{
	"serve.store.hits", "serve.store.misses", "serve.store.evictions",
	"cluster.requests", "cluster.origin_fetches", "cluster.origin_fallbacks", "cluster.reroutes", "cluster.sheds",
}

func sameCounts(a, b metricSet) error {
	for _, name := range comparedCounts {
		slack := 0.02*math.Max(a[name], b[name]) + 16
		if name == "cluster.requests" {
			slack = 0
		}
		if math.Abs(a[name]-b[name]) > slack {
			return fmt.Errorf("%s is %.0f untraced and %.0f traced", name, a[name], b[name])
		}
	}
	return nil
}

// ---- viewer_sim ----

// simSessions is how many sessions the timed phase of a viewer_sim run
// simulates.
func simSessions(p params) int { return max(p.sz.simRound, int(p.seconds*p.sz.simRate)) }

func runViewerSim(p params) (result, error) {
	video := newVideo(p.sz.simVideo)
	setup := func() ([]core.Report, error) { return engineReports(video, p.seed, p.sz.simRef) }
	if p.traced {
		return runViewerSimTraced(p, video, setup)
	}
	var ref []core.Report
	setupS, err := timeSetups(p.sz.setups, kernelYard, func() (err error) {
		ref, err = setup()
		return err
	})
	if err != nil {
		return result{}, err
	}
	r := &simRunner{video: video, seed: p.seed, reg: obs.NewRegistry()}
	if err := r.run(simSessions(p), p.sz.simRound); err != nil {
		return result{}, err
	}
	failed := r.failed + mismatches(ref, r.reports)
	m := metricSet{"setup_s": setupS}
	r.endToEndMetrics(m)
	m["peak_rss_MB"] = peakRSSMB()
	logRaw("viewer_sim", r.rawMetrics)
	fmt.Fprintf(logOut, "bench: viewer_sim: %d sessions, report digest %016x\n", len(r.reports), digest(r.reports))
	return result{Correct: failed == 0, Attempted: len(r.reports), Failed: failed, Metrics: m.render(endToEnd)}, nil
}

func runViewerSimTraced(p params, video *media.Video, setup func() ([]core.Report, error)) (result, error) {
	m := metricSet{}
	ref, err := setup()
	if err != nil {
		return result{}, err
	}
	var gc0, gc1 runtime.MemStats
	runtime.ReadMemStats(&gc0)
	plain := &simRunner{video: video, seed: p.seed, reg: obs.NewRegistry()}
	if err := plain.run(simSessions(p)/2, p.sz.simRound); err != nil {
		return result{}, err
	}
	runtime.ReadMemStats(&gc1)
	plain.rawMetrics(m)
	m["sim_viewer_s_per_s"] = m["raw.goodput_rps"]
	m["cpu_ms_per_viewer_s"] = m["cpu_us_per_req"] / 1e3
	m["allocs_per_viewer_s"] = plain.perViewerS(func(rd simRound) float64 { return float64(rd.mallocs) })
	m["proc.gc_cycles"] = float64(gc1.NumGC - gc0.NumGC)
	m["proc.gc_pause_ms"] = float64(gc1.PauseTotalNs-gc0.PauseTotalNs) / 1e6
	m["proc.goroutines_end"] = float64(runtime.NumGoroutine())

	// Replay the first eight rounds under span decorators. The decorated
	// sessions must produce the reports the bare ones did.
	t := newTracer()
	t.on.Store(true)
	traced := &simRunner{video: video, seed: p.seed, reg: obs.NewRegistry(), t: t}
	n := min(len(plain.reports), 8*p.sz.simRound)
	err = traced.run(n, p.sz.simRound)
	t.on.Store(false)
	if err != nil {
		return result{}, err
	}
	if err := checkParents(t.spans); err != nil {
		return result{}, err
	}
	spanMetrics(m, analyze(t.spans, "core.session"), simSpans, "viewer_s", float64(n)*video.Duration.Seconds())
	// Overhead over the same sessions: the bare rounds that were replayed.
	bare := *plain
	bare.rounds = plain.rounds[:len(traced.rounds)]
	before, after := metricSet{}, metricSet{}
	bare.endToEndMetrics(before)
	traced.endToEndMetrics(after)
	m["trace.overhead_share"] = after["fetch_p50_ms"]/before["fetch_p50_ms"] - 1
	if err := writeSpans(p.outDir, "viewer_sim", t.spans); err != nil {
		return result{}, err
	}
	attempted := len(plain.reports) + len(traced.reports)
	failed := plain.failed + traced.failed + mismatches(ref, plain.reports) + mismatches(plain.reports[:n], traced.reports)
	m["error_share"] = float64(failed) / float64(attempted)
	return result{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: m.render(perLayer)}, nil
}

// mismatches counts the reports in got that differ from want, index by
// index, over want's length.
func mismatches(want, got []core.Report) int {
	n := 0
	for i := range want {
		if i >= len(got) || got[i] != want[i] {
			n++
			fmt.Fprintf(logOut, "bench: verify: session %d does not reproduce its reference report\n", i)
		}
	}
	return n
}

// digest fingerprints a run's reports, so two runs of one seed can be
// compared at a glance.
func digest(reports []core.Report) uint64 {
	h := fnv.New64a()
	for _, r := range reports {
		fmt.Fprintf(h, "%+v\n", r)
	}
	return h.Sum64()
}

// ---- span analysis shared by both kinds of workload ----

type analysis struct {
	layers map[string]*layerStat
	// residual is |Σ over span names of the median per-request self time
	// (0 for a request the span does not occur in) − median root
	// duration| ÷ median root duration: how far the per-layer medians are
	// from adding up to the end-to-end median.
	residual float64
}

func analyze(spans []span, rootName string) analysis {
	an := analysis{layers: selfTimes(spans)}
	var rootDur []float64
	reqs := make(map[uint64]struct{})
	for _, s := range spans {
		if s.Name == rootName && s.Parent == 0 {
			rootDur = append(rootDur, float64(s.End-s.Start)/1e3)
			reqs[s.Req] = struct{}{}
		}
	}
	if len(rootDur) == 0 {
		return an
	}
	var sum float64
	for _, st := range an.layers {
		perReq := make([]float64, 0, len(reqs))
		for req := range reqs {
			perReq = append(perReq, st.selfByReq[req])
		}
		sum += median(perReq)
	}
	sort.Float64s(rootDur)
	total := quantile(rootDur, 0.5)
	an.residual = math.Abs(sum-total) / total
	return an
}
