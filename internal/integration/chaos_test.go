package integration

import (
	"context"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"testing"
	"time"

	"sperke/internal/codec"
	"sperke/internal/core"
	"sperke/internal/dash"
	"sperke/internal/faults"
	"sperke/internal/live"
	"sperke/internal/media"
	"sperke/internal/netem"
	"sperke/internal/obs"
	"sperke/internal/sim"
	"sperke/internal/tiling"
	"sperke/internal/trace"
	"sperke/internal/transport"
)

func breakerCycle(trs []transport.BreakerTransition) (opened, reclosed bool) {
	for _, tr := range trs {
		if tr.To == transport.BreakerOpen {
			opened = true
		}
		if opened && tr.To == transport.BreakerClosed {
			reclosed = true
		}
	}
	return
}

// TestChaosBroadcastSurvivesScriptedPlan replays a scripted fault plan —
// a mid-session uplink outage followed by a bandwidth cliff — against a
// full simulated broadcast with the breaker-driven spatial fallback
// active. The session must complete with bounded rebuffering and the
// breaker must open and re-close.
func TestChaosBroadcastSurvivesScriptedPlan(t *testing.T) {
	reg := obs.NewRegistry()
	plan := faults.MustParse("outage:uplink:8s:4s,cliff:uplink:16s:4s:1M")
	run := live.Measure(5, live.Facebook, live.Opts{
		Duration: 30 * time.Second,
		UpTrace:  netem.Constant(8e6), DownTrace: netem.Constant(10e6),
		Degrade: &live.DegradeConfig{
			Breaker: transport.BreakerConfig{FailureThreshold: 2, Cooldown: 2 * time.Second},
			Plan:    live.HorizonPlan{SpanDeg: 180},
			ArmFaults: func(clock *sim.Clock, upload *netem.Path) {
				if err := plan.Apply(clock, upload); err != nil {
					t.Errorf("apply plan: %v", err)
				}
			},
			Obs: reg,
		},
	})

	opened, reclosed := breakerCycle(run.Transitions)
	if !opened || !reclosed {
		t.Fatalf("breaker cycle incomplete (opened=%v reclosed=%v): %+v",
			opened, reclosed, run.Transitions)
	}
	if run.Result.Samples == 0 {
		t.Fatal("viewer displayed nothing — the session did not survive the plan")
	}
	nSegs := int(30 * time.Second / live.Facebook.SegmentDur)
	if run.Result.SkippedSegments >= nSegs/2 {
		t.Fatalf("%d of %d segments skipped — degradation unbounded",
			run.Result.SkippedSegments, nSegs)
	}
	if run.Result.Stalls > 8 {
		t.Fatalf("%d rebuffer events — not bounded across a 4s outage", run.Result.Stalls)
	}
	if run.DegradedPieces == 0 || run.DegradedPieces >= run.TotalPieces {
		t.Fatalf("fallback accounting %d/%d — expected partial degradation",
			run.DegradedPieces, run.TotalPieces)
	}

	// The whole episode must be visible through the metrics registry: the
	// breaker cycle, the fallback doing work, and the pipeline's latency
	// histograms filling in.
	snap := reg.Snapshot()
	if n := snap.Counters["transport.breaker.to_open"]; n < 1 {
		t.Fatalf("breaker.to_open counter = %d, want >= 1", n)
	}
	if n := snap.Counters["transport.breaker.to_closed"]; n < 1 {
		t.Fatalf("breaker.to_closed counter = %d, want >= 1", n)
	}
	if n := snap.Counters["live.fallback.activations"]; n < 1 {
		t.Fatalf("fallback activations counter = %d, want >= 1", n)
	}
	if n := snap.Counters["live.fallback.degraded_pieces"]; n != int64(run.DegradedPieces) {
		t.Fatalf("degraded_pieces counter = %d, want %d", n, run.DegradedPieces)
	}
	if h := snap.Histograms["live.e2e_ms"]; h.Count == 0 {
		t.Fatal("live.e2e_ms histogram empty — viewer latency unobserved")
	}
	for _, stage := range []string{"span.encode_ms", "span.upload_ms", "span.transcode_ms", "span.fetch_ms"} {
		if h := snap.Histograms[stage]; h.Count == 0 {
			t.Fatalf("%s histogram empty — stage span unrecorded", stage)
		}
	}
}

// TestChaosChunkSessionFailsOver replays a path outage against a
// two-path failover session: a chunk request every 250 ms for 30 s.
// Every chunk must complete, misses must stay bounded to the requests
// the outage caught in flight, and the tripped breaker must recover.
func TestChaosChunkSessionFailsOver(t *testing.T) {
	clock := sim.NewClock(9)
	wifi := netem.NewPath(clock, "wifi", netem.Constant(8e6), 10*time.Millisecond, 0)
	lte := netem.NewPath(clock, "lte", netem.Constant(4e6), 30*time.Millisecond, 0)
	// 4.8s start so the outage catches the 4.75s chunk mid-transfer: that
	// delivery lands late, trips the breaker, and the rest of the session
	// must fail over.
	if err := faults.MustParse("outage:wifi:4800ms:5s").Apply(clock, wifi); err != nil {
		t.Fatal(err)
	}
	f := transport.NewFailover(clock,
		transport.BreakerConfig{FailureThreshold: 1, Cooldown: 2 * time.Second}, wifi, lte)
	reg := obs.NewRegistry()
	f.SetObs(reg)

	completions, missed := 0, 0
	submit := func(at time.Duration, bytes int64) {
		req := &transport.Request{
			Class: transport.ClassFoV, Bytes: bytes, Deadline: at + time.Second,
			OnDone: func(d netem.Delivery, ok bool) {
				completions++
				if !ok {
					missed++
				}
			},
		}
		clock.Schedule(at, func() { f.Submit(req) })
	}
	const session = 120
	for i := 0; i < session; i++ {
		submit(time.Duration(i)*250*time.Millisecond, 1e5)
	}
	// A burst just before the outage builds a wifi backlog the blackout
	// catches mid-queue; the router's estimates cannot see queued work, so
	// this is what actually trips the breaker.
	const burst = 4
	for i := 0; i < burst; i++ {
		submit(4050*time.Millisecond, 250e3)
	}
	clock.Run()

	const total = session + burst
	if completions != total {
		t.Fatalf("%d/%d chunks completed — session did not finish", completions, total)
	}
	if f.Pending() != 0 {
		t.Fatalf("%d requests stranded", f.Pending())
	}
	if missed > 5 {
		t.Fatalf("%d deadline misses — failover did not contain the outage", missed)
	}
	opened, reclosed := breakerCycle(f.Breaker(0).Transitions())
	if !opened || !reclosed {
		t.Fatalf("wifi breaker cycle incomplete (opened=%v reclosed=%v): %+v",
			opened, reclosed, f.Breaker(0).Transitions())
	}
	if f.Stats(1).Successes == 0 {
		t.Fatal("lte absorbed nothing during the wifi outage")
	}

	// The failover's work must be observable: reroutes counted, the queue
	// drained back to zero, and the breaker cycle mirrored in counters.
	snap := reg.Snapshot()
	if n := snap.Counters["transport.failover.rerouted"]; n < 1 {
		t.Fatalf("rerouted counter = %d, want >= 1", n)
	}
	if n := snap.Gauges["transport.failover.queue_depth"]; n != 0 {
		t.Fatalf("queue_depth gauge = %d at session end, want 0", n)
	}
	wantSucc := int64(f.Stats(0).Successes + f.Stats(1).Successes)
	if n := snap.Counters["transport.failover.successes"]; n != wantSucc {
		t.Fatalf("successes counter = %d, want %d (per-path stats)", n, wantSucc)
	}
	if n := snap.Counters["transport.breaker.to_open"]; n < 1 {
		t.Fatalf("breaker.to_open counter = %d, want >= 1", n)
	}
}

// TestChaosHTTPFaultBurstAndTruncation runs a real HTTP session against
// a dash server behind the fault injector: a 5xx burst plus exactly one
// truncated segment. The resilient client must absorb every fault, and
// the session must not leak goroutines.
func TestChaosHTTPFaultBurstAndTruncation(t *testing.T) {
	before := runtime.NumGoroutine()

	func() {
		video := liveVideo(2*time.Second, 5)
		catalog := dash.NewCatalog()
		if err := catalog.Add(video); err != nil {
			t.Fatal(err)
		}
		in := faults.NewInjector(42,
			faults.Rule{PathContains: "/c/", ErrorProb: 1, ErrorStatus: http.StatusBadGateway, MaxCount: 3},
			faults.Rule{PathContains: "/c/", TruncateProb: 1, MaxCount: 1},
		)
		srv := httptest.NewServer(in.Wrap(dash.NewServer(catalog)))
		defer srv.Close()

		tr := &http.Transport{}
		defer tr.CloseIdleConnections()
		client := dash.NewClient(srv.URL, dash.WithTransport(tr),
			dash.WithRetry(dash.RetryPolicy{MaxAttempts: 8, BaseDelay: time.Microsecond}))

		mpd, err := client.FetchMPD(context.Background(), video.ID)
		if err != nil {
			t.Fatalf("manifest: %v", err)
		}
		fetches, attempts := 0, 0
		for idx := 0; idx < mpd.NumChunks(); idx++ {
			for tile := 0; tile < 2; tile++ {
				res, err := client.FetchChunk(context.Background(), video.ID, 1, tile, idx)
				if err != nil {
					t.Fatalf("chunk %d/%d through faults: %v", tile, idx, err)
				}
				fetches++
				attempts += res.Attempts
			}
		}
		if attempts <= fetches {
			t.Fatalf("%d attempts for %d fetches — the faults never fired", attempts, fetches)
		}
		st := in.Stats()
		if st.Errors != 3 {
			t.Fatalf("injected %d 502s, want the scripted 3", st.Errors)
		}
		if st.Truncations != 1 {
			t.Fatalf("injected %d truncations, want exactly 1", st.Truncations)
		}
		// Every injected fault cost exactly one extra attempt.
		if got, want := attempts-fetches, 4; got != want {
			t.Fatalf("%d retries, want %d (3 errors + 1 truncation)", got, want)
		}
	}()

	// No goroutine leaks: everything the session spawned must wind down.
	deadline := time.Now().Add(3 * time.Second)
	for {
		if n := runtime.NumGoroutine(); n <= before+2 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines %d -> %d after session teardown", before, runtime.NumGoroutine())
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// TestChaosSlowDeviceMetricsObservable runs a full player session on a
// pathologically slow device with a tight chunk-cache budget and checks
// that the stress is visible end-to-end through the metrics registry:
// decode-deadline misses fire, both caches record hits and misses, and
// the session report lands in the core.session counters. This is the
// acceptance path for "cache hit ratios and decode-deadline misses all
// observable".
func TestChaosSlowDeviceMetricsObservable(t *testing.T) {
	reg := obs.NewRegistry()
	video := &media.Video{
		ID:             "chaos-device",
		Duration:       30 * time.Second,
		ChunkDuration:  2 * time.Second,
		Grid:           tiling.GridCellular,
		ProjectionName: "equirectangular",
		Ladder:         media.DefaultLadder,
		Encoding:       media.EncodingAVC,
	}
	// A 2 Mpx/s single decoder cannot keep up with a 360° tile stream —
	// the same "potato" profile the core tests use to force hiccups.
	slow := codec.DeviceProfile{
		Name:          "potato",
		HWDecoders:    1,
		Decoder:       codec.DecoderSpec{PixelRate: 2e6, SubmitOverhead: 5 * time.Millisecond},
		MaxDisplayFPS: 60,
	}
	cfg := core.Config{
		Video:             video,
		Mode:              core.FoVGuided,
		Device:            &slow,
		Decoders:          1,
		EncodedCacheBytes: 2 << 20, // tight: forces chunk-cache churn
	}

	clock := sim.NewClock(14)
	path := netem.NewPath(clock, "net", netem.Constant(15e6), 20*time.Millisecond, 0)
	sched := transport.NewSinglePath(clock, path)
	dur := video.Duration + 10*time.Second
	rng := rand.New(rand.NewSource(14))
	att := trace.GenerateAttention(rand.New(rand.NewSource(514)), dur)
	head := trace.Generate(rng, trace.UserProfile{ID: "u", SpeedScale: 1}, att, dur)
	s, err := core.NewSession(clock, cfg, head, sched, core.WithObs(reg))
	if err != nil {
		t.Fatal(err)
	}
	rep := s.Run()
	if rep.QoE.PlayTime == 0 {
		t.Fatal("session played nothing")
	}

	snap := reg.Snapshot()
	if n := snap.Counters["player.decode.deadline_misses"]; n < 1 {
		t.Fatalf("deadline_misses = %d on a 2 Mpx/s decoder, want >= 1", n)
	}
	if h := snap.Counters["player.frame_cache.hits"]; h < 1 {
		t.Fatalf("frame cache hits = %d, want >= 1", h)
	}
	if m := snap.Counters["player.frame_cache.misses"]; m < 1 {
		t.Fatalf("frame cache misses = %d, want >= 1", m)
	}
	if h := snap.Counters["player.chunk_cache.hits"]; h < 1 {
		t.Fatalf("chunk cache hits = %d, want >= 1", h)
	}
	if n := snap.Counters["core.session.runs"]; n != 1 {
		t.Fatalf("core.session.runs = %d, want 1", n)
	}
	if n := snap.Counters["core.session.bytes_fetched"]; n != rep.BytesFetched {
		t.Fatalf("bytes_fetched counter = %d, report says %d", n, rep.BytesFetched)
	}
}
