package cluster

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"syscall"
	"testing"
	"time"
	"unsafe"

	"sperke/internal/dash"
	"sperke/internal/obs"
	"sperke/internal/serve"
	"sperke/internal/sim"
)

// hangupWriter is a viewer that hung up while its request's context is
// still live — the race a real hang-up loses when the RST beats the
// server's background read: every Write fails with EPIPE.
type hangupWriter struct{ h http.Header }

func (w *hangupWriter) Header() http.Header         { return w.h }
func (w *hangupWriter) WriteHeader(int)             {}
func (w *hangupWriter) Write(p []byte) (int, error) { return 0, syscall.EPIPE }

// TestViewerHangupIsNotTheEdges: a failed write to the viewer is the
// sink's failure, not the source's. Four hang-ups through the front
// door or StreamChunk, over real listeners, in-memory ones or in-process
// edges, cost
// one edge exchange each, trip no breaker, fall back to the origin
// never, and reach dash.Server as aborts, not 500s. Charged to the edge,
// they declared all three down and fetched four bodies from the origin
// for nobody. The socket viewer is a real one at a front door on a
// listener: it reads the head and resets the connection, which over a
// real-listener edge breaks the body's handover mid-splice.
func TestViewerHangupIsNotTheEdges(t *testing.T) {
	v := wireVideo()
	const hangups = 4
	for _, carrier := range []string{"wire", "loopback", "in-process"} {
		for _, sink := range []string{"front-door", "StreamChunk", "socket"} {
			if carrier == "loopback" && sink == "socket" {
				// The socket viewer breaks a handover, which needs a TCP hop;
				// over net.Pipe the edge's own write fails with it and counts
				// as one more abort, as often as the race goes that way.
				continue
			}
			t.Run(carrier+"/"+sink, func(t *testing.T) {
				reg := obs.NewRegistry()
				opts := []Option{WithNodes(3), WithCatalog(wireCatalog(t, v)), WithObs(reg), WithClock(sim.NewClock(1))}
				switch carrier {
				case "wire":
					opts = append(opts, WithWire(true))
				case "loopback":
					opts = append(opts, WithLoopback())
				}
				// The socket viewer's chunk must outgrow the kernel buffers
				// between it and the front door.
				var origin dash.ChunkSource = &countingOrigin{}
				key := wireKeys(v)[0]
				if sink == "socket" {
					origin, key = catalogOrigin(t), bigKey()
				}
				c, err := New(origin, opts...)
				if err != nil {
					t.Fatal(err)
				}
				defer c.Close()
				var addr string
				returned := make(chan struct{}, 1)
				if sink == "socket" {
					addr = serveFrontDoor(t, dash.NewHTTPServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
						c.FrontDoor().ServeHTTP(w, r)
						returned <- struct{}{}
					})))
				}
				for i := 0; i < hangups; i++ {
					w := &hangupWriter{h: make(http.Header)}
					switch sink {
					case "front-door":
						c.FrontDoor().ServeHTTP(w, httptest.NewRequest(http.MethodGet, keyPath(key), nil))
					case "socket":
						viewer := stalledViewer(t, addr, keyPath(key))
						if _, err := http.ReadResponse(bufio.NewReader(viewer), nil); err != nil {
							t.Fatalf("hang-up %d: %v", i, err)
						}
						viewer.SetLinger(0)
						viewer.Close()
						select {
						case <-returned:
						case <-time.After(10 * time.Second):
							t.Fatalf("hang-up %d: the front door is still serving a viewer that reset", i)
						}
					default:
						if _, err := c.StreamChunk(context.Background(), w, key.Video, key.Quality, key.Tile, key.Index, key.Layer); !errors.Is(err, dash.ErrViewerGone) {
							t.Fatalf("hang-up %d: StreamChunk returned %v, want dash.ErrViewerGone", i, err)
						}
					}
				}
				var exchanges int64
				for _, n := range c.Nodes() {
					exchanges += n.Requests()
					if got := reg.Gauge("cluster.health." + n.ID() + ".alive").Value(); got != 1 {
						t.Errorf("%s declared down by a viewer's hang-up", n.ID())
					}
				}
				if got := reg.Counter("cluster.health.down_transitions").Value(); got != 0 {
					t.Errorf("cluster.health.down_transitions = %d, want 0", got)
				}
				if exchanges != hangups {
					t.Errorf("%d hang-ups cost %d edge exchanges, want one each", hangups, exchanges)
				}
				if got := c.met.originFallbacks.Value(); got != 0 {
					t.Errorf("cluster.origin_fallbacks = %d, want 0", got)
				}
				if sink == "StreamChunk" {
					return
				}
				if canceled, errs := reg.Counter("dash.server.canceled").Value(), reg.Counter("dash.server.errors").Value(); canceled != hangups || errs != 0 {
					t.Errorf("dash.server.canceled = %d, errors = %d; want %d and 0", canceled, errs, hangups)
				}
			})
		}
	}
}

// writeCounter is a viewer that takes every byte and counts the writes
// that brought them.
type writeCounter struct {
	h         http.Header
	writes, n int
}

func (w *writeCounter) Header() http.Header { return w.h }
func (w *writeCounter) WriteHeader(int)     {}
func (w *writeCounter) Write(p []byte) (int, error) {
	w.writes++
	w.n += len(p)
	return len(p), nil
}

// TestRelayTurns: over an edge whose body hands over all it holds per
// read, each read reaches the viewer in one write. A 100 KB body fits
// its 128 KiB block and crosses in one turn (four through a 32 KiB
// one); a 300 KB body is past the largest class and takes two; kept for
// a replica, the body is its own block and crosses in one — and over an
// edge that trickles it a byte per read, in one write per byte,
// forwarded as each read lands rather than slurped whole first. A kept
// body is handed out sealed (len == cap), so no two holders share room.
func TestRelayTurns(t *testing.T) {
	v := wireVideo()
	key := wireKeys(v)[0]
	for _, tc := range []struct {
		n, replicas, writes int
		trickle             bool
	}{
		{100_000, 1, 1, false},
		{300_000, 1, 2, false},
		{300_000, 2, 1, false},
		{1_000, 2, 1_000, true},
	} {
		c, err := New(&countingOrigin{}, WithNodes(tc.replicas), WithReplication(tc.replicas),
			WithLoopback(), withEdge(fixedEdge(int64(tc.n), bytes.Repeat([]byte("x"), tc.n), tc.trickle)),
			WithCatalog(wireCatalog(t, v)), WithClock(sim.NewClock(1)))
		if err != nil {
			t.Fatal(err)
		}
		w := &writeCounter{h: make(http.Header)}
		_, err = c.StreamChunk(context.Background(), w, key.Video, key.Quality, key.Tile, key.Index, key.Layer)
		kept, kerr := c.Chunk(context.Background(), key.Video, key.Quality, key.Tile, key.Index, key.Layer)
		c.Close()
		if err = errors.Join(err, kerr); err != nil {
			t.Fatalf("%d bytes, R=%d: %v", tc.n, tc.replicas, err)
		}
		if w.n != tc.n || w.writes != tc.writes {
			t.Fatalf("%d bytes, R=%d: %d bytes in %d writes, want all in %d", tc.n, tc.replicas, w.n, w.writes, tc.writes)
		}
		if len(kept) != tc.n || cap(kept) != len(kept) {
			t.Fatalf("%d bytes, R=%d: kept body has len %d, cap %d; want %d, sealed", tc.n, tc.replicas, len(kept), cap(kept), tc.n)
		}
	}
}

// newCarrierCluster is a cluster in front of origin, with wireVideo's
// catalog, on the named carrier — "in-process", "loopback" or "tcp" (real
// listeners) — and torn down when the test ends.
func newCarrierCluster(tb testing.TB, carrier string, origin dash.ChunkSource, opts ...Option) *Cluster {
	tb.Helper()
	opts = append(opts, WithCatalog(wireCatalog(tb, wireVideo())))
	switch carrier {
	case "loopback":
		opts = append(opts, WithLoopback())
	case "tcp":
		opts = append(opts, WithWire(true))
	}
	c, err := New(origin, opts...)
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(c.Close)
	return c
}

// resident is node id's own body for key, failing the test when it holds
// none.
func resident(t *testing.T, c *Cluster, id string, key serve.ChunkKey) []byte {
	t.Helper()
	body, ok := c.Node(id).Store().Peek(key)
	if !ok {
		t.Fatalf("%s holds no body for %v", id, key)
	}
	return body
}

// TestReplicaWarmSharesTheServedBody: with R = 2, a cold GET warms the
// key's co-owner with the serving owner's own sealed slice, on every
// carrier — the warm is a second reference to one body, not a copy the
// router kept off the wire.
func TestReplicaWarmSharesTheServedBody(t *testing.T) {
	v := wireVideo()
	key := wireKeys(v)[4]
	want, err := dash.BuildChunkBody(v, key.Quality, key.Tile, key.Index, key.Layer)
	if err != nil {
		t.Fatal(err)
	}
	for _, carrier := range []string{"in-process", "loopback", "tcp"} {
		t.Run(carrier, func(t *testing.T) {
			c := newCarrierCluster(t, carrier, catalogOrigin(t), WithNodes(3), WithReplication(2), WithClock(sim.NewClock(1)))
			if rec := chunkGET(t, c.FrontDoor(), key); rec.Code != http.StatusOK || !bytes.Equal(rec.Body.Bytes(), want) {
				t.Fatalf("GET: %d and %d bytes, want 200 and the %d-byte chunk", rec.Code, rec.Body.Len(), len(want))
			}
			c.DrainWarms()
			if got := c.Warms(); got != 1 {
				t.Fatalf("cluster.warms = %d, want 1", got)
			}
			owners := Owners(key, c.NodeNames(), 2)
			served, warmed := resident(t, c, owners[0], key), resident(t, c, owners[1], key)
			if unsafe.SliceData(warmed) != unsafe.SliceData(served) {
				t.Fatalf("%s was warmed with a copy of %s's body, not the body itself", owners[1], owners[0])
			}
			if !bytes.Equal(warmed, want) {
				t.Fatalf("the warmed body is not dash.BuildChunkBody's")
			}
		})
	}
}

// TestWriterlessChunkGetsTheServedBody: Chunk over a wire carrier hands
// its caller the serving edge's own sealed slice — alone, and as a herd
// whose followers share the leader's flight — so no caller holds a copy
// the router made.
func TestWriterlessChunkGetsTheServedBody(t *testing.T) {
	const herd = 6
	v := wireVideo()
	alone, herded := wireKeys(v)[0], wireKeys(v)[1]
	for _, carrier := range []string{"loopback", "tcp"} {
		t.Run(carrier, func(t *testing.T) {
			origin := newBlockingOrigin(herded)
			c := newCarrierCluster(t, carrier, origin, WithNodes(3), WithClock(sim.NewClock(1)))
			owner := func(key serve.ChunkKey) string { return Rank(key, c.NodeNames())[0] }

			body := fetchKey(t, c, alone)
			if unsafe.SliceData(body) != unsafe.SliceData(resident(t, c, owner(alone), alone)) {
				t.Fatalf("Chunk returned a copy of %s's body, not the body itself", owner(alone))
			}

			bodies := make(chan []byte, herd)
			errs := make(chan error, herd)
			fetch := func() {
				body, err := c.Chunk(context.Background(), herded.Video, herded.Quality, herded.Tile, herded.Index, herded.Layer)
				bodies <- body
				errs <- err
			}
			go fetch() // the flight leader
			<-origin.arrived
			for i := 1; i < herd; i++ {
				go fetch()
			}
			waitForFollowers(t, c, herded, herd-1)
			close(origin.release)
			got := make([][]byte, herd)
			for i := range got {
				if err := <-errs; err != nil {
					t.Fatalf("herd member failed: %v", err)
				}
				got[i] = <-bodies
			}
			served := resident(t, c, owner(herded), herded)
			for i, body := range got {
				if unsafe.SliceData(body) != unsafe.SliceData(served) || !bytes.Equal(body, originBody(herded)) {
					t.Fatalf("herd body %d of %d is not %s's own", i+1, herd, owner(herded))
				}
			}
			if got := c.Coalesced(); got != herd-1 {
				t.Fatalf("cluster.coalesced = %d, want exactly %d", got, herd-1)
			}
			if got := origin.count(); got != 2 {
				t.Fatalf("%d origin fetches, want 2: one per key", got)
			}
		})
	}
}

// TestReplicaWarmWithoutAnEdgeCopy: an edge that answers without holding
// the body — here a handler that never touches the node's store —
// still gets its co-owner warmed, with a sealed copy of the relayed
// bytes: the router keeps a body exactly when no edge holds one.
func TestReplicaWarmWithoutAnEdgeCopy(t *testing.T) {
	v := wireVideo()
	key := wireKeys(v)[4]
	want, err := dash.BuildChunkBody(v, key.Quality, key.Tile, key.Index, key.Layer)
	if err != nil {
		t.Fatal(err)
	}
	c, err := New(&countingOrigin{}, WithNodes(2), WithReplication(2), WithLoopback(), withEdge(fixedEdge(int64(len(want)), want, false)),
		WithCatalog(wireCatalog(t, v)), WithClock(sim.NewClock(1)))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if rec := chunkGET(t, c.FrontDoor(), key); rec.Code != http.StatusOK || !bytes.Equal(rec.Body.Bytes(), want) {
		t.Fatalf("GET: %d and %d bytes, want 200 and the %d-byte chunk", rec.Code, rec.Body.Len(), len(want))
	}
	c.DrainWarms()
	owners := Owners(key, c.NodeNames(), 2)
	if c.Node(owners[0]).Store().Contains(key) {
		t.Fatalf("%s holds the body, so this test does not pin the kept copy", owners[0])
	}
	warmed := resident(t, c, owners[1], key)
	if !bytes.Equal(warmed, want) || cap(warmed) != len(warmed) {
		t.Fatalf("%s was warmed with %d bytes of cap %d, want the %d-byte chunk sealed", owners[1], len(warmed), cap(warmed), len(want))
	}
	if got := c.Warms(); got != 1 {
		t.Fatalf("cluster.warms = %d, want 1", got)
	}
}

// TestWireReplicaWarmAllocBudget: a cold GET through a real-listener
// front door with R = 2 allocates one body — the origin's exact-size
// synthesis, which the serving edge and then its co-owner hold — and a
// fixed overhead beside it. A router that kept its own copy of the
// relayed bytes for the warm would pay a second body.
func TestWireReplicaWarmAllocBudget(t *testing.T) {
	if obs.RaceEnabled {
		t.Skip("race-mode sync.Pool drops Puts at random; the byte budget holds only without -race")
	}
	const slack = 8 << 10 // bytes per fetch beside its body; 6.9 KB measured
	v := wireVideo()
	c := newCarrierCluster(t, "tcp", catalogOrigin(t), WithNodes(3), WithReplication(2))
	front := c.FrontDoor()
	keys := wireKeys(v)
	w := &discardResponse{h: make(http.Header, 4)}
	reqs := make([]*http.Request, len(keys))
	lens := make([]int64, len(keys))
	for i, key := range keys {
		reqs[i] = httptest.NewRequest(http.MethodGet, fmt.Sprintf("/v/%s/c/%d/%d/%d", key.Video, key.Quality, key.Tile, key.Index), nil)
		n, err := dash.ChunkBodyLen(v, key.Quality, key.Tile, key.Index, key.Layer)
		if err != nil {
			t.Fatal(err)
		}
		lens[i] = int64(n)
	}
	get := func(i int) {
		w.n = 0
		if front.ServeHTTP(w, reqs[i]); w.n != lens[i] {
			t.Fatalf("GET %v: %d bytes, want %d", keys[i], w.n, lens[i])
		}
	}
	// One P, as testing.AllocsPerRun runs on: a pooled block put back on
	// one P is out of reach of a Get on another, and the budget counts
	// the relay's blocks, not the scheduler's moves. The first GETs dial
	// the hop's connections and fill the relay's pools.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	const warmup = 6
	for i := 0; i < warmup; i++ {
		get(i)
	}
	c.DrainWarms()
	var bodies int64
	for _, n := range lens[warmup:] {
		bodies += n
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := warmup; i < len(keys); i++ {
		get(i)
	}
	c.DrainWarms()
	runtime.ReadMemStats(&after)
	n := int64(len(keys) - warmup)
	perFetch := int64(after.TotalAlloc-before.TotalAlloc) / n
	t.Logf("a replicated cold GET allocates %d bytes: a %d-byte body on average and %d beside it", perFetch, bodies/n, perFetch-bodies/n)
	if perFetch > bodies/n+slack {
		t.Fatalf("a replicated cold GET allocates %d bytes, want at most its %d-byte body and %d more", perFetch, bodies/n, slack)
	}
}
