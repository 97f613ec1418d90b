package serve

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"sperke/internal/core"
	"sperke/internal/dash"
	"sperke/internal/media"
	"sperke/internal/netem"
	"sperke/internal/obs"
	"sperke/internal/sim"
	"sperke/internal/tiling"
	"sperke/internal/transport"
)

func engineVideo() *media.Video {
	return &media.Video{
		ID:             "eng",
		Duration:       12 * time.Second,
		ChunkDuration:  2 * time.Second,
		Grid:           tiling.GridPrototype,
		ProjectionName: "equirectangular",
		Ladder:         media.DefaultLadder,
		Encoding:       media.EncodingAVC,
	}
}

// TestEngineDeterministicAcrossWorkerCounts is the engine's core
// guarantee: per-session QoE is a pure function of the seed, so the
// same run at different worker counts yields identical reports.
func TestEngineDeterministicAcrossWorkerCounts(t *testing.T) {
	v := engineVideo()
	run := func(workers int) []SessionResult {
		eng, err := NewEngine(EngineConfig{
			Video:    v,
			Sessions: 6,
			Workers:  workers,
			BaseSeed: 99,
		})
		if err != nil {
			t.Fatal(err)
		}
		return eng.Run(context.Background()).Sessions
	}
	one := run(1)
	four := run(4)
	for i := range one {
		if one[i].Err != nil {
			t.Fatalf("session %d: %v", i, one[i].Err)
		}
		if !reflect.DeepEqual(one[i], four[i]) {
			t.Fatalf("session %d differs across worker counts:\n1 worker:  %+v\n4 workers: %+v",
				i, one[i], four[i])
		}
	}
	if one[0].Seed != 99 || one[5].Seed != 104 {
		t.Fatalf("seeds not BaseSeed+i: %d..%d", one[0].Seed, one[5].Seed)
	}
	// Different seeds must actually produce different viewers — otherwise
	// the determinism check above proves nothing.
	if reflect.DeepEqual(one[0].Report, one[1].Report) {
		t.Fatal("adjacent seeds produced identical reports; seeding is broken")
	}
}

// TestEngineAggregates checks the aggregate math against the
// per-session reports it summarizes.
func TestEngineAggregates(t *testing.T) {
	eng, err := NewEngine(EngineConfig{Video: engineVideo(), Sessions: 3, Workers: 2, BaseSeed: 7})
	if err != nil {
		t.Fatal(err)
	}
	res := eng.Run(context.Background())
	if res.Agg.Sessions != 3 {
		t.Fatalf("aggregate sessions = %d, want 3", res.Agg.Sessions)
	}
	var bytes int64
	var quality float64
	for _, sr := range res.Sessions {
		bytes += sr.Report.BytesFetched
		quality += sr.Report.QoE.MeanQuality()
	}
	if res.Agg.BytesFetched != bytes {
		t.Fatalf("aggregate bytes %d != sum %d", res.Agg.BytesFetched, bytes)
	}
	if got, want := res.Agg.MeanQuality, quality/3; got < want-1e-9 || got > want+1e-9 {
		t.Fatalf("aggregate mean quality %v != %v", got, want)
	}
	if res.Agg.BytesFetched == 0 {
		t.Fatal("sessions fetched nothing")
	}
}

// TestEngineAgainstHTTPOrigin drives viewers whose fetches also hit a
// real DASH server backed by the sharded store, and checks the HTTP leg
// leaves QoE untouched.
func TestEngineAgainstHTTPOrigin(t *testing.T) {
	v := engineVideo()
	catalog := dash.NewCatalog()
	if err := catalog.Add(v); err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	store := NewCatalogStore(catalog, StoreConfig{Shards: 4, BudgetBytes: 64 << 20, Obs: reg})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := &http.Server{Handler: dash.NewServer(catalog, dash.WithStore(store))}
	go srv.Serve(ln)
	defer srv.Close()

	client := dash.NewClient("http://" + ln.Addr().String())
	mk := func(c *dash.Client) *Engine {
		eng, err := NewEngine(EngineConfig{
			Video: v, Sessions: 4, Workers: 4, BaseSeed: 5, Client: c, Obs: reg,
		})
		if err != nil {
			t.Fatal(err)
		}
		return eng
	}
	withHTTP := mk(client).Run(context.Background())
	if withHTTP.HTTPFetches == 0 {
		t.Fatal("no HTTP fetches recorded")
	}
	if withHTTP.HTTPErrors != 0 {
		t.Fatalf("%d HTTP errors", withHTTP.HTTPErrors)
	}
	if withHTTP.FetchLatency.Count != withHTTP.HTTPFetches {
		t.Fatalf("latency samples %d != fetches %d", withHTTP.FetchLatency.Count, withHTTP.HTTPFetches)
	}
	hits := reg.Counter("serve.store.hits").Value()
	misses := reg.Counter("serve.store.misses").Value()
	if hits+misses == 0 {
		t.Fatal("store saw no traffic")
	}

	// The HTTP leg is observation-only: QoE must match a pure-sim run.
	pure := mk(nil).Run(context.Background())
	for i := range pure.Sessions {
		if !reflect.DeepEqual(pure.Sessions[i].Report, withHTTP.Sessions[i].Report) {
			t.Fatalf("session %d QoE differs with HTTP leg attached", i)
		}
	}
}

// payloadCounter is a client transport that reads every chunk body
// through media.ReadSegment and sums the payload bytes, then hands the
// body on unchanged.
type payloadCounter struct {
	inner http.RoundTripper
	bytes atomic.Int64
}

func (p *payloadCounter) RoundTrip(r *http.Request) (*http.Response, error) {
	resp, err := p.inner.RoundTrip(r)
	if err != nil || resp.StatusCode != http.StatusOK {
		return resp, err
	}
	// The origin declares every chunk's length, so the body is read
	// into one buffer of that size.
	body := make([]byte, resp.ContentLength)
	_, err = io.ReadFull(resp.Body, body)
	resp.Body.Close()
	if err != nil {
		return nil, err
	}
	_, payload, err := media.ReadSegment(bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	p.bytes.Add(int64(len(payload)))
	resp.Body = io.NopCloser(bytes.NewReader(body))
	return resp, nil
}

// inFlight passes requests on and keeps the bytes of those whose
// delivery has not come back: at the session's end, what it fetched
// and never saw arrive. It also counts the exchanges the HTTP mirror
// owes the requests: one per AVC request, one per layer of an SVC one.
type inFlight struct {
	inner     transport.Scheduler
	bytes     int64
	exchanges int64
}

func (f *inFlight) Name() string { return f.inner.Name() }

func (f *inFlight) Submit(r *transport.Request) {
	f.bytes += r.Bytes
	f.exchanges++
	if r.Encoding == media.EncodingSVC {
		f.exchanges += int64(r.Chunk.Quality - r.From)
	}
	c := *r
	c.OnDone = func(d netem.Delivery, ok bool) {
		f.bytes -= c.Bytes
		r.OnDone(d, ok)
	}
	f.inner.Submit(&c)
}

// TestEngineMirrorBytesEqualSessionBytes is the byte law: per run, the
// chunk payload bytes the HTTP mirror fetches equal the Σ of the
// sessions' Report.BytesFetched plus the bytes of requests still in
// flight when a session ended, and the mirror makes one exchange per
// AVC request and one per layer an SVC request carries, none failing.
// The mirror fetches a request when it is submitted; the session counts
// it when it arrives.
//
// Each case is 4 sessions of a 20 s cellular-grid video. The engine
// rows run AVC and SVC, with and without upgrades, at five seeds; each
// session is run again in pure simulation, as runOne builds it, to find
// what it left in flight and which exchanges it asked for. EngineConfig
// runs no hybrid sessions (§3.1.2), so the hybrid rows build theirs
// here around the same mirror; they run with upgrades, which re-fetch
// the AVC-picked tiles whole and the SVC-picked ones by layer. Three
// runs, one per form, end with bytes in flight.
func TestEngineMirrorBytesEqualSessionBytes(t *testing.T) {
	video := func(id string, enc media.Encoding) *media.Video {
		v := engineVideo()
		v.ID, v.Duration, v.Grid, v.Encoding = id, 20*time.Second, tiling.GridCellular, enc
		return v
	}
	avc, svc := video("eng", media.EncodingAVC), video("svc", media.EncodingSVC)
	avcTail, svcTail, hybridTail := video("p", media.EncodingAVC), video("r", media.EncodingSVC), video("t", media.EncodingSVC)
	catalog := dash.NewCatalog()
	for _, v := range []*media.Video{avc, svc, avcTail, svcTail, hybridTail} {
		if err := catalog.Add(v); err != nil {
			t.Fatal(err)
		}
	}
	store := NewCatalogStore(catalog, StoreConfig{Shards: 4, BudgetBytes: 64 << 20})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := &http.Server{Handler: dash.NewServer(catalog, dash.WithStore(store))}
	go srv.Serve(ln)
	t.Cleanup(func() { srv.Close() }) // after the parallel cases

	type lawCase struct {
		v        *media.Video
		upgrades bool
		hybrid   bool
		seed     int64
		inFlight bool // the run must leave bytes in flight
	}
	// When playback ends, three upgrades of the last chunk, C(q=5, l=6,
	// t=18s) among them, are in flight in the AVC run's third session.
	// An SVC upgrade carries only its enhancement layer and lands sooner:
	// the hybrid run leaves one, and the SVC run at seed 3 leaves one,
	// C(q=5, l=11, t=18s), in its fourth session.
	cases := []lawCase{
		{v: avcTail, upgrades: true, seed: 1, inFlight: true},
		{v: svcTail, upgrades: true, seed: 3, inFlight: true},
		{v: hybridTail, upgrades: true, hybrid: true, seed: 1, inFlight: true},
	}
	seeds := []int64{1, 3, 5, 7, 42}
	if obs.RaceEnabled {
		// The law is deterministic; what the race build adds is the
		// concurrent mirror, which the seed-1 rows cover at a fifth of the
		// cost.
		cases, seeds = nil, seeds[:1]
	}
	for _, seed := range seeds {
		for _, v := range []*media.Video{avc, svc} {
			for _, upgrades := range []bool{false, true} {
				cases = append(cases, lawCase{v: v, upgrades: upgrades, seed: seed})
			}
		}
		cases = append(cases, lawCase{v: svc, upgrades: true, hybrid: true, seed: seed})
	}

	for _, c := range cases {
		name := fmt.Sprintf("%s,upgrades=%v,hybrid=%v,seed=%d", c.v.ID, c.upgrades, c.hybrid, c.seed)
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			reg := obs.NewRegistry()
			counter := &payloadCounter{inner: http.DefaultTransport}
			eng, err := NewEngine(EngineConfig{
				Video: c.v, Sessions: 4, Workers: 2, BaseSeed: c.seed,
				EnableUpgrades: c.upgrades, Obs: reg,
				Client: dash.NewClient("http://"+ln.Addr().String(), dash.WithTransport(counter), dash.WithClientObs(reg)),
			})
			if err != nil {
				t.Fatal(err)
			}
			// session runs viewer i on a fresh clock and path, through f
			// and, when mirror is set, the engine's HTTP mirror.
			session := func(i int, f *inFlight, mirror bool) core.Report {
				clock := sim.NewClock(eng.cfg.BaseSeed + int64(i))
				path := netem.NewPath(clock, "net", netem.Constant(accessBPS), propagation, 0)
				f.inner = transport.NewSinglePath(clock, path)
				var sched transport.Scheduler = f
				if mirror {
					sched = &httpMirror{ctx: context.Background(), inner: f, client: eng.cfg.Client,
						video: c.v, met: &eng.met, wall: obs.NewWall()}
				}
				s, err := core.NewSession(clock, core.Config{Video: c.v, EnableUpgrades: c.upgrades, HybridSVC: c.hybrid},
					sessionTrace(eng.cfg, i), sched)
				if err != nil {
					t.Fatal(err)
				}
				return s.Run()
			}
			var res EngineResult
			if !c.hybrid {
				res = eng.Run(context.Background())
			}
			var fetched, left, exchanges int64
			for i := 0; i < eng.cfg.Sessions; i++ {
				f := &inFlight{}
				rep := session(i, f, c.hybrid)
				if c.hybrid && (rep.HybridAVCFetches == 0 || rep.HybridSVCFetches == 0) {
					t.Fatalf("session %d did not mix encodings: AVC=%d SVC=%d",
						i, rep.HybridAVCFetches, rep.HybridSVCFetches)
				}
				if !c.hybrid && rep != res.Sessions[i].Report {
					t.Fatalf("session %d does not reproduce its engine report", i)
				}
				fetched += rep.BytesFetched
				left += f.bytes
				exchanges += f.exchanges
			}
			if c.inFlight && left == 0 {
				t.Error("nothing left in flight")
			}
			if got, want := counter.bytes.Load(), fetched+left; got != want {
				t.Errorf("mirror fetched %d payload bytes, sessions account %d and left %d in flight",
					got, fetched, left)
			}
			httpFetches := reg.Counter("serve.engine.http_fetches").Value()
			segments := reg.Counter("dash.client.segment_fetches").Value()
			if errs := reg.Counter("serve.engine.http_errors").Value(); errs != 0 {
				t.Errorf("%d HTTP errors", errs)
			}
			if httpFetches != exchanges || segments != exchanges {
				t.Errorf("%d mirror fetches and %d client segment fetches, requests ask for %d exchanges",
					httpFetches, segments, exchanges)
			}
		})
	}
}

// TestEngineContextCancel: a canceled run returns promptly with partial
// (zero-play) reports rather than hanging the pool.
func TestEngineContextCancel(t *testing.T) {
	eng, err := NewEngine(EngineConfig{Video: engineVideo(), Sessions: 2, BaseSeed: 1})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res := eng.Run(ctx)
	if len(res.Sessions) != 2 {
		t.Fatalf("got %d session slots", len(res.Sessions))
	}
	for i, sr := range res.Sessions {
		if sr.Err != nil {
			t.Fatalf("session %d: %v", i, sr.Err)
		}
		if sr.Report.QoE.PlayTime != 0 {
			t.Fatalf("session %d played %v under a pre-canceled context", i, sr.Report.QoE.PlayTime)
		}
	}
}

// TestNewEngineValidates pins config validation and defaults.
func TestNewEngineValidates(t *testing.T) {
	if _, err := NewEngine(EngineConfig{}); err == nil {
		t.Fatal("nil video accepted")
	}
	eng, err := NewEngine(EngineConfig{Video: engineVideo(), Sessions: 2, Workers: 64})
	if err != nil {
		t.Fatal(err)
	}
	if eng.cfg.Workers != 2 {
		t.Fatalf("workers not capped at sessions: %d", eng.cfg.Workers)
	}
}

// nopSched is an inner scheduler that accepts and drops requests.
type nopSched struct{}

func (nopSched) Name() string                { return "nop" }
func (nopSched) Submit(r *transport.Request) {}

// TestMirrorSubmitAbortsOnEngineCancel is the regression for the
// legacy-path context drop: Submit carries no caller context, so its
// mirror fetch must ride the engine run's context — canceling the run
// aborts the in-flight HTTP request. Before the fix the mirror ran on
// context.Background and this fetch hung until the server closed.
func TestMirrorSubmitAbortsOnEngineCancel(t *testing.T) {
	entered := make(chan struct{})
	var once sync.Once
	handler := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		once.Do(func() { close(entered) })
		<-r.Context().Done()
	})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := &http.Server{Handler: handler}
	go srv.Serve(ln)
	defer srv.Close()

	reg := obs.NewRegistry()
	ctx, cancel := context.WithCancel(context.Background())
	m := &httpMirror{
		ctx:    ctx,
		inner:  nopSched{},
		client: dash.NewClient("http://" + ln.Addr().String()),
		video:  engineVideo(),
		met: &engineMetrics{
			fetchMS: reg.Histogram("test.fetch_ms"),
			fetches: reg.Counter("test.fetches"),
			errors:  reg.Counter("test.errors"),
		},
		wall: obs.NewWall(),
	}
	done := make(chan struct{})
	go func() {
		m.Submit(&transport.Request{Chunk: tiling.ChunkID{}})
		close(done)
	}()
	<-entered
	cancel()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("legacy Submit's mirror fetch never aborted on engine cancel")
	}
	if m.met.errors.Value() == 0 {
		t.Fatal("aborted mirror fetch should be counted as an HTTP error")
	}
}

// TestEngineCancelLeavesNoPendingMirrorFetch: canceling a run with an
// HTTP mirror attached both returns promptly and unwinds every
// in-flight mirror request — the origin sees each request's context
// die instead of holding connections for chunks nobody will record.
func TestEngineCancelLeavesNoPendingMirrorFetch(t *testing.T) {
	var inflight atomic.Int64
	entered := make(chan struct{})
	var once sync.Once
	handler := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		inflight.Add(1)
		defer inflight.Add(-1)
		once.Do(func() { close(entered) })
		<-r.Context().Done()
	})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := &http.Server{Handler: handler}
	go srv.Serve(ln)
	defer srv.Close()

	eng, err := NewEngine(EngineConfig{
		Video: engineVideo(), Sessions: 2, Workers: 2, BaseSeed: 9,
		Client: dash.NewClient("http://" + ln.Addr().String()),
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	runDone := make(chan struct{})
	go func() {
		eng.Run(ctx)
		close(runDone)
	}()
	<-entered
	cancel()
	select {
	case <-runDone:
	case <-time.After(10 * time.Second):
		t.Fatal("engine run never returned after cancel")
	}
	deadline := time.Now().Add(5 * time.Second)
	for inflight.Load() != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("%d mirror fetch(es) still pending after engine cancel", inflight.Load())
		}
		time.Sleep(time.Millisecond)
	}
}
