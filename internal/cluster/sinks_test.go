package cluster

import (
	"context"
	"errors"
	"net/http"
	"reflect"
	"slices"
	"strconv"
	"sync/atomic"
	"testing"

	"sperke/internal/dash"
	"sperke/internal/media"
	"sperke/internal/serve"
	"sperke/internal/sim"
)

// scriptedOrigin is a real catalog store the script can block on one
// key or fail outright, whichever sink the request came through.
type scriptedOrigin struct {
	inner   *serve.Store
	fail    atomic.Bool
	block   serve.ChunkKey
	arrived chan struct{}
	release chan struct{}
}

func (o *scriptedOrigin) Chunk(ctx context.Context, videoID string, quality, tile, index int, layer bool) ([]byte, error) {
	if o.fail.Load() {
		return nil, errors.New("origin storage offline")
	}
	if (serve.ChunkKey{Video: videoID, Quality: quality, Tile: tile, Index: index, Layer: layer}) == o.block {
		o.arrived <- struct{}{}
		<-o.release
	}
	return o.inner.Chunk(ctx, videoID, quality, tile, index, layer)
}

// arm makes fetches of key block until release is closed. The script
// calls it between steps, with no request in flight.
func (o *scriptedOrigin) arm(key serve.ChunkKey) {
	o.block, o.release = key, make(chan struct{})
}

// cuttingEdge serves the node's dash.Server but, while armed, lets the
// response's head out and none of its body: the edge died after
// promising Content-Length and before its first body byte.
type cuttingEdge struct {
	next  http.Handler
	armed *atomic.Bool
}

func (h cuttingEdge) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if h.armed.CompareAndSwap(true, false) {
		w = headOnly{w}
	}
	h.next.ServeHTTP(w, r)
}

// headOnly drops every body byte written to it.
type headOnly struct{ http.ResponseWriter }

func (headOnly) Write(p []byte) (int, error) { return len(p), nil }

// sinkCounters snapshots every counter the two sinks share.
func sinkCounters(c *Cluster) map[string]int64 {
	m := map[string]int64{
		"requests":         c.met.requests.Value(),
		"reroutes":         c.met.reroutes.Value(),
		"sheds":            c.met.sheds.Value(),
		"origin_fallbacks": c.met.originFallbacks.Value(),
		"origin_fetches":   c.met.originFetches.Value(),
		"coalesced":        c.met.coalesced.Value(),
		"origin_failures":  c.met.originChunkErrs.Value() + c.met.originStreamErrs.Value(),
	}
	for _, n := range c.Nodes() {
		m[n.ID()+".requests"] = n.Requests()
		m[n.ID()+".misses"] = n.Misses()
	}
	return m
}

func counterDelta(before, after map[string]int64) map[string]int64 {
	d := make(map[string]int64)
	for k, v := range after {
		if v != before[k] {
			d[k] = v - before[k]
		}
	}
	return d
}

// TestSameScenarioBothSinks drives one scripted sequence — cold miss,
// warm hit, primary killed, shed, truncated edge body, a herd with every
// edge down, failing origin — through each sink of the single request
// path: Chunk (no writer, the body comes back whole) and a front-door
// GET (the ResponseWriter is the sink), each over the in-memory carrier
// and over TCP. Every served body must equal dash.BuildChunkBody, and
// every step must move every shared counter by the same amount on every
// run. The one documented difference is where a failed fallback
// lands: cluster.origin_errors without a writer,
// cluster.origin_stream_errors with one (summed here as
// origin_failures, then checked apart).
func TestSameScenarioBothSinks(t *testing.T) {
	v := wireVideo()
	keys := wireKeys(v)

	// All scripted keys share one primary edge, so the kill and the shed
	// land where the script expects.
	ids := []string{"edge-0", "edge-1", "edge-2"}
	var owned []serve.ChunkKey
	for _, k := range keys {
		if Rank(k, ids)[0] == Rank(keys[0], ids)[0] && Rank(k, ids)[1] == Rank(keys[0], ids)[1] {
			owned = append(owned, k)
		}
	}
	if len(owned) < 5 {
		t.Fatalf("only %d keys share a primary and a second; the script needs 5", len(owned))
	}
	kMain, kBlock, kShed, kCut, kFail := owned[0], owned[1], owned[2], owned[3], owned[4]
	// The herd's key needs no particular owner: every edge is down by then.
	kHerd := keys[slices.IndexFunc(keys, func(k serve.ChunkKey) bool { return !slices.Contains(owned[:5], k) })]
	const herd = 6

	steps := []struct {
		name    string
		key     serve.ChunkKey
		arrange func(t *testing.T, e *sinkEnv)
		cleanup func(t *testing.T, e *sinkEnv)
		herd    int // > 0: that many concurrent requests, held at the origin until all have joined
		fails   bool
		want    func(e *sinkEnv) map[string]int64
	}{
		{
			name: "cold miss", key: kMain,
			want: func(e *sinkEnv) map[string]int64 {
				return map[string]int64{"requests": 1, "origin_fetches": 1,
					e.primary.ID() + ".requests": 1, e.primary.ID() + ".misses": 1}
			},
		},
		{
			name: "warm hit", key: kMain,
			want: func(e *sinkEnv) map[string]int64 {
				return map[string]int64{"requests": 1, e.primary.ID() + ".requests": 1}
			},
		},
		{
			name: "primary killed, rerouted", key: kMain,
			arrange: func(t *testing.T, e *sinkEnv) { e.c.KillNode(e.primary.ID()) },
			cleanup: func(t *testing.T, e *sinkEnv) { e.c.RecoverNode(e.primary.ID()) },
			want: func(e *sinkEnv) map[string]int64 {
				return map[string]int64{"requests": 1, "reroutes": 1, "origin_fetches": 1,
					e.second + ".requests": 1, e.second + ".misses": 1}
			},
		},
		{
			name: "shed, origin fallback", key: kShed,
			arrange: func(t *testing.T, e *sinkEnv) {
				// Occupy the primary's single admission slot with a miss
				// the origin holds open; the step's request is then shed.
				go func() {
					_, err := e.primary.Chunk(context.Background(), kBlock.Video, kBlock.Quality, kBlock.Tile, kBlock.Index, kBlock.Layer)
					e.hold <- err
				}()
				<-e.origin.arrived
			},
			cleanup: func(t *testing.T, e *sinkEnv) {
				close(e.origin.release)
				if err := <-e.hold; err != nil {
					t.Fatalf("occupying request failed: %v", err)
				}
			},
			want: func(e *sinkEnv) map[string]int64 {
				return map[string]int64{"requests": 1, "sheds": 1, "origin_fallbacks": 1, "origin_fetches": 1}
			},
		},
		{
			name: "truncated edge body, rerouted", key: kCut,
			arrange: func(t *testing.T, e *sinkEnv) { e.cut.Store(true) },
			want: func(e *sinkEnv) map[string]int64 {
				// The primary served (and missed) before its body was cut.
				return map[string]int64{"requests": 1, "reroutes": 1, "origin_fetches": 2,
					e.primary.ID() + ".requests": 1, e.primary.ID() + ".misses": 1,
					e.second + ".requests": 1, e.second + ".misses": 1}
			},
		},
		{
			// With no edge to ask, the leader's fallback body must reach
			// its followers on either sink: one origin fetch for the herd.
			name: "herd, every edge down", key: kHerd, herd: herd,
			arrange: func(t *testing.T, e *sinkEnv) {
				for _, id := range e.c.NodeNames() {
					e.c.KillNode(id)
				}
				e.origin.arm(kHerd)
			},
			want: func(e *sinkEnv) map[string]int64 {
				return map[string]int64{"requests": herd, "origin_fallbacks": 1, "origin_fetches": 1, "coalesced": herd - 1}
			},
		},
		{
			name: "failing origin", key: kFail, fails: true,
			arrange: func(t *testing.T, e *sinkEnv) {
				for _, id := range e.c.NodeNames() {
					e.c.KillNode(id)
				}
				e.origin.fail.Store(true)
			},
			want: func(e *sinkEnv) map[string]int64 {
				return map[string]int64{"requests": 1, "origin_fallbacks": 1, "origin_failures": 1}
			},
		},
	}

	chunk := func(t *testing.T, c *Cluster, key serve.ChunkKey) ([]byte, bool) {
		body, err := c.Chunk(context.Background(), key.Video, key.Quality, key.Tile, key.Index, key.Layer)
		return body, err == nil
	}
	frontDoor := func(t *testing.T, c *Cluster, key serve.ChunkKey) ([]byte, bool) {
		rec := chunkGET(t, c.FrontDoor(), key)
		if rec.Code != http.StatusOK {
			return nil, false
		}
		if cl := rec.Header().Get("Content-Length"); cl != strconv.Itoa(rec.Body.Len()) {
			// Errorf: a herd calls fetch off the test's goroutine.
			t.Errorf("Content-Length %q on a %d-byte body", cl, rec.Body.Len())
			return nil, false
		}
		return rec.Body.Bytes(), true
	}
	// Each sink runs on the in-memory carrier and again on TCP: the same
	// hop and edge loop, so the same deltas.
	sinks := []struct {
		name    string
		carrier string
		writer  bool
		// fetch returns the served body, or ok=false for a failed request.
		fetch func(t *testing.T, c *Cluster, key serve.ChunkKey) (body []byte, ok bool)
	}{
		{"chunk", "loopback", false, chunk},
		{"front-door", "loopback", true, frontDoor},
		{"chunk-tcp", "tcp", false, chunk},
		{"front-door-tcp", "tcp", true, frontDoor},
	}

	deltas := make([][]map[string]int64, len(sinks))
	for si, sink := range sinks {
		t.Run(sink.name, func(t *testing.T) {
			e := newSinkEnv(t, sink.carrier, v, kMain, kBlock)
			defer e.c.Close()
			for _, step := range steps {
				if step.arrange != nil {
					step.arrange(t, e)
				}
				before := sinkCounters(e.c)
				var body []byte
				var ok bool
				if step.herd > 0 {
					body, ok = e.fetchHerd(t, sink.fetch, step.key, step.herd)
				} else {
					body, ok = sink.fetch(t, e.c, step.key)
				}
				if ok == step.fails {
					t.Fatalf("%s: served = %v, want %v", step.name, ok, !step.fails)
				}
				if ok {
					want, err := dash.BuildChunkBody(v, step.key.Quality, step.key.Tile, step.key.Index, step.key.Layer)
					if err != nil {
						t.Fatal(err)
					}
					if string(body) != string(want) {
						t.Fatalf("%s: body differs from dash.BuildChunkBody (%d vs %d bytes)", step.name, len(body), len(want))
					}
				}
				if step.cleanup != nil {
					step.cleanup(t, e)
				}
				d := counterDelta(before, sinkCounters(e.c))
				if want := step.want(e); !reflect.DeepEqual(d, want) {
					t.Fatalf("%s: counter deltas %v, want %v", step.name, d, want)
				}
				deltas[si] = append(deltas[si], d)
			}
			wantChunkErrs, wantStreamErrs := int64(1), int64(0)
			if sink.writer {
				wantChunkErrs, wantStreamErrs = 0, 1
			}
			if got := e.c.met.originChunkErrs.Value(); got != wantChunkErrs {
				t.Fatalf("origin_errors = %d, want %d", got, wantChunkErrs)
			}
			if got := e.c.met.originStreamErrs.Value(); got != wantStreamErrs {
				t.Fatalf("origin_stream_errors = %d, want %d", got, wantStreamErrs)
			}
		})
	}
	for si := range sinks[1:] {
		if !reflect.DeepEqual(deltas[0], deltas[si+1]) {
			t.Fatalf("two sinks moved the shared counters differently:\n%s: %v\n%s: %v",
				sinks[0].name, deltas[0], sinks[si+1].name, deltas[si+1])
		}
	}
}

// sinkEnv is one sink's run of the scenario: the cluster, the handles
// the script steers it with, and the scripted keys' first two ranked
// edges.
type sinkEnv struct {
	c       *Cluster
	origin  *scriptedOrigin
	cut     *atomic.Bool
	primary *Node
	second  string
	hold    chan error // the shed step's occupying request
}

// fetchHerd sends n concurrent requests for key, which the script has
// armed the origin to hold: the leader first, the rest once it is inside
// the origin, the release once they are all attached to its flight. It
// reports one body and whether every request was served that same body.
func (e *sinkEnv) fetchHerd(t *testing.T, fetch func(*testing.T, *Cluster, serve.ChunkKey) ([]byte, bool), key serve.ChunkKey, n int) ([]byte, bool) {
	t.Helper()
	type result struct {
		body []byte
		ok   bool
	}
	results := make(chan result, n)
	one := func() {
		body, ok := fetch(t, e.c, key)
		results <- result{body, ok}
	}
	go one()
	<-e.origin.arrived
	for i := 1; i < n; i++ {
		go one()
	}
	waitForFollowers(t, e.c, key, n-1)
	close(e.origin.release)
	first := <-results
	for i := 1; i < n; i++ {
		if r := <-results; !r.ok || string(r.body) != string(first.body) {
			first.ok = false
		}
	}
	return first.body, first.ok
}

// newSinkEnv builds the scenario's cluster: three edges on the named wire
// carrier that admit one request at a time, over a real catalog store,
// each serving through the cutting handler.
func newSinkEnv(t *testing.T, carrier string, v *media.Video, routed, block serve.ChunkKey) *sinkEnv {
	t.Helper()
	catalog := wireCatalog(t, v)
	origin := &scriptedOrigin{
		inner:   serve.NewCatalogStore(catalog, serve.StoreConfig{}),
		block:   block,
		arrived: make(chan struct{}, 1),
		release: make(chan struct{}),
	}
	cut := new(atomic.Bool)
	opts := []Option{WithNodes(3), withMaxInFlight(1),
		withEdge(func(n *Node) http.Handler { return cuttingEdge{next: n.server, armed: cut} }),
		WithCatalog(catalog), WithClock(sim.NewClock(1))}
	if carrier == "loopback" {
		opts = append(opts, WithLoopback())
	}
	c, err := New(origin, opts...)
	if err != nil {
		t.Fatal(err)
	}
	ranked := Rank(routed, c.NodeNames())
	return &sinkEnv{c: c, origin: origin, cut: cut,
		primary: c.Node(ranked[0]), second: ranked[1], hold: make(chan error, 1)}
}
