package cluster

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"
	"unsafe"

	"sperke/internal/dash"
	"sperke/internal/obs"
	"sperke/internal/serve"
	"sperke/internal/sim"
)

// blockingOrigin blocks synthesis of one key until released, signaling
// each blocked arrival, and counts every call. The herd tests use it
// to hold a flight open while followers pile on.
type blockingOrigin struct {
	mu       sync.Mutex
	calls    int
	block    serve.ChunkKey
	arrived  chan struct{} // one buffered send per blocked call
	release  chan struct{}
	honorCtx bool
}

func newBlockingOrigin(block serve.ChunkKey) *blockingOrigin {
	return &blockingOrigin{
		block:   block,
		arrived: make(chan struct{}, 64),
		release: make(chan struct{}),
	}
}

func (o *blockingOrigin) Chunk(ctx context.Context, videoID string, quality, tile, index int, layer bool) ([]byte, error) {
	key := serve.ChunkKey{Video: videoID, Quality: quality, Tile: tile, Index: index, Layer: layer}
	o.mu.Lock()
	o.calls++
	o.mu.Unlock()
	if key == o.block {
		o.arrived <- struct{}{}
		if o.honorCtx {
			select {
			case <-o.release:
			case <-ctx.Done():
				return nil, ctx.Err()
			}
		} else {
			<-o.release
		}
	}
	return originBody(key), nil
}

func (o *blockingOrigin) count() int {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.calls
}

// waitForFollowers polls until key's flight is open and n requests
// wait on it — the deterministic "everyone is waiting" barrier the herd
// tests release against. The dump cannot tell keys or clusters apart,
// so the count is of every follower in the process: a caller holds one
// flight open, in a test that does not run in parallel.
func waitForFollowers(t *testing.T, c *Cluster, key serve.ChunkKey, n int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	buf := make([]byte, 1<<20)
	for {
		got := 0
		if c.coal.inFlight(key) {
			got, _, _, _, _ = parked(buf)
		}
		if got == n {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("followers on %v = %d, want %d", key, got, n)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestHerdColdKeyCoalescesToOneOriginFetch is the herd law on the
// model harness's seed: three cold requests for a held key cost the
// origin one fetch, and two count as coalesced.
func TestHerdColdKeyCoalescesToOneOriginFetch(t *testing.T) { playSeed(t, "herd-of-three") }

// TestWireHerdStreamsColdKeyOnce is the same herd over the wire: the
// followers take the edge's resident body as the leader's stream opens.
func TestWireHerdStreamsColdKeyOnce(t *testing.T) {
	t.Run("tcp", func(t *testing.T) { playSeed(t, "wire-herd-of-three") })
}

// TestFetchWireRejectsTruncatedBody: a body an edge's socket cuts short
// is charged to the edge and fails over; no short body reaches Chunk's
// caller or a replica.
func TestFetchWireRejectsTruncatedBody(t *testing.T) { playSeed(t, "cut-body-fails-over") }

// TestProxyBodyRejectsTruncatedStream: cut after bytes reached a
// streamed viewer, the request fails with the typed transient error.
func TestProxyBodyRejectsTruncatedStream(t *testing.T) {
	playSeed(t, "cut-after-bytes-fails-the-viewer")
}

// TestStreamOriginFetchCountsOnSuccessOnly: with every edge down, an
// origin fallback that serves counts under cluster.origin_fetches, and
// one that fails under cluster.origin_errors alone.
func TestStreamOriginFetchCountsOnSuccessOnly(t *testing.T) {
	playSeed(t, "fallbacks-count-what-they-fetch")
}

// TestStreamOriginFetchCountedOnSuccess is the wire form of the passing
// half: with every edge down, a completed fallback stream from the
// front door counts exactly once.
func TestStreamOriginFetchCountedOnSuccess(t *testing.T) {
	c := newCarrierCluster(t, "tcp", &countingOrigin{}, WithNodes(2), WithClock(sim.NewClock(1)))
	for _, id := range c.NodeNames() {
		c.KillNode(id)
	}
	key := serve.ChunkKey{Video: wireVideo().ID}
	rec := chunkGET(t, c.FrontDoor(), key)
	if rec.Code != http.StatusOK {
		t.Fatalf("fallback GET status %d", rec.Code)
	}
	if rec.Body.String() != string(originBody(key)) {
		t.Fatalf("fallback body %q, want %q", rec.Body.String(), originBody(key))
	}
	if got := c.met.originFetches.Value(); got != 1 {
		t.Fatalf("origin_fetches = %d, want 1", got)
	}
	if got := c.met.originErrors.Value(); got != 0 {
		t.Fatalf("origin_errors = %d, want 0", got)
	}
}

// FuzzRelayDeclaredLength: whatever length an edge declares and
// whatever body follows, relay either moves exactly the declared bytes
// (all of them when none was declared) or fails with a typed transient
// *dash.Error and keeps nothing — so a short, long or absurdly declared
// body is never a success, never a replica's warm write, and never a
// panic, whether or not the edge holds a copy. A body the sink needs is
// the edge's own slice when the edge holds one of the declared length,
// and a sealed copy of the relayed bytes otherwise. Through the walk, from
// edges whose loops send it short, the same body fails over to the origin
// and warms no replica.
//
// Over a hop, the edge is a loopback listener that answers one GET with
// the declared length (none, and Connection: close, when it is negative)
// and the body, and closes; the writer is a front door on a real socket,
// so a body the relay keeps no copy of is handed over by splice. Bytes
// past the declared length are the start of the reply's next response
// there, not this one's body: the relay moves exactly the declared bytes,
// and the viewer gets those and nothing after them. A short body still
// fails, with no byte past the declared length at the viewer, and the
// connection is pooled only after a reply whose body ended as declared
// under keep-alive — exactly at its end when the reply fits the hop's
// reader, where a byte past it shows (FuzzHopExchange's rule).
func FuzzRelayDeclaredLength(f *testing.F) {
	f.Add(int64(5), []byte("short"), false, false, true, false)
	f.Add(int64(100), []byte("short"), true, true, true, false)
	f.Add(int64(2), []byte("longer than declared"), true, false, true, false)
	f.Add(int64(-1), []byte("no length declared"), false, true, true, false)
	f.Add(int64(0), []byte{}, true, true, false, false)
	f.Add(int64(1)<<62, []byte("x"), true, false, false, false)
	f.Add(int64(-1)<<63, []byte("x"), false, false, true, false)
	// Each side of the smallest and the largest block class, streamed
	// and kept, with and without an edge copy; a short and a long body at
	// the top; a body of undeclared length kept past the first block; and
	// a length past the cap.
	for _, n := range []int{obs.MinBlockLen - 1, obs.MinBlockLen, obs.MinBlockLen + 1, obs.MaxBlockLen - 1, obs.MaxBlockLen, obs.MaxBlockLen + 1} {
		f.Add(int64(n), make([]byte, n), false, true, false, false)
		f.Add(int64(n), make([]byte, n), true, true, false, false)
		f.Add(int64(n), make([]byte, n), true, false, true, false)
	}
	f.Add(int64(obs.MaxBlockLen+1), make([]byte, obs.MaxBlockLen), false, true, true, false)
	f.Add(int64(obs.MaxBlockLen), make([]byte, obs.MaxBlockLen+1), true, false, true, false)
	f.Add(int64(-1), make([]byte, obs.MinBlockLen+9), false, false, false, false)
	f.Add(maxBodyLen+1, []byte("x"), false, true, true, false)
	// Over a hop: handed over whole, short, long, and past the hop's
	// reader; kept for a replica; undeclared; refused.
	f.Add(int64(5), []byte("hello"), false, true, true, true)
	f.Add(int64(100), []byte("short"), false, true, true, true)
	f.Add(int64(2), []byte("longer than declared"), false, true, true, true)
	f.Add(int64(obs.MinBlockLen), make([]byte, obs.MinBlockLen), false, true, true, true)
	f.Add(int64(obs.MinBlockLen), make([]byte, obs.MinBlockLen/2), false, true, true, true)
	f.Add(int64(obs.MinBlockLen), make([]byte, obs.MinBlockLen+9), false, true, true, true)
	f.Add(int64(obs.MinBlockLen), make([]byte, obs.MinBlockLen), true, true, false, true)
	f.Add(int64(-1), make([]byte, obs.MinBlockLen+9), false, true, true, true)
	f.Add(maxBodyLen+1, []byte("x"), false, true, true, true)

	edges, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(func() { edges.Close() })
	// The front door runs each hop case's relay on its own response.
	relays := make(chan func(http.ResponseWriter), 1)
	front := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) { (<-relays)(w) }))
	f.Cleanup(front.Close)

	v := wireVideo()
	key := serve.ChunkKey{Video: v.ID, Quality: 0, Tile: 0, Index: 0}
	// Two edges that both answer every GET with the exec's length and
	// body, and that no exec's failures hold down for the next.
	var answer atomic.Pointer[http.Handler]
	c, err := New(&countingOrigin{}, WithNodes(2), WithReplication(2),
		withEdge(func(*Node) http.Handler {
			return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) { (*answer.Load()).ServeHTTP(w, r) })
		}),
		WithCatalog(wireCatalog(f, v)), WithClock(sim.NewClock(1)), WithHealth(HealthConfig{FailThreshold: math.MaxInt}))
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(c.Close)
	f.Fuzz(func(t *testing.T, declared int64, body []byte, replicate, writer, held, hop bool) {
		h := fixedEdge(declared, body)(nil)
		answer.Store(&h)
		// The edge's copy, when it holds one, is the body the stream
		// carries, in a slice of its own: open hands the relay none of
		// another length than the declared one.
		var edge []byte
		if held && declared == int64(len(body)) {
			edge = bytes.Clone(body)
		}
		st := chunkStream{body: io.NopCloser(bytes.NewReader(body)), length: declared}
		want, ok := body, declared < 0 || declared == int64(len(body))
		var pool *hopTransport
		if hop {
			var served <-chan struct{}
			pool, st, served = hopStream(t, edges, declared, body)
			defer func() { pool.drop(true); <-served }()
			if declared >= 0 && declared < int64(len(body)) {
				want, ok = body[:declared], true
			}
		}
		var n int64
		var kept, viewer []byte
		switch {
		case writer && hop:
			done := make(chan struct{})
			relays <- func(w http.ResponseWriter) {
				defer close(done)
				n, kept, err = relay(w, st, edge, replicate, key)
			}
			_, viewer = rawGET(t, front.Listener.Addr().String(), "/")
			<-done
		case writer:
			rec := httptest.NewRecorder()
			n, kept, err = relay(rec, st, edge, replicate, key)
			viewer = rec.Body.Bytes()
		default:
			n, kept, err = relay(nil, st, edge, replicate, key)
		}
		pooled := pool != nil && pool.idleLen() == 1
		if pooled && (!ok || declared < 0) {
			t.Fatalf("declared %d, body %d bytes: pooled after a reply that did not end under keep-alive", declared, len(body))
		}
		if hop && 64+len(body) < hopBufLen && pooled != (declared == int64(len(body))) {
			t.Fatalf("declared %d, body %d bytes: pooled %v, want it exactly when the body ended at the reply's end", declared, len(body), pooled)
		}
		if ok {
			if err != nil || n != int64(len(want)) {
				t.Fatalf("declared %d, body %d bytes: relayed %d, %v", declared, len(body), n, err)
			}
			switch {
			case writer && !replicate:
				if kept != nil {
					t.Fatalf("declared %d: a streaming relay nobody needed a body from kept %d bytes", declared, len(kept))
				}
			case !bytes.Equal(kept, want):
				t.Fatalf("declared %d: kept %q of %q", declared, kept, want)
			case held && declared == int64(len(body)) && len(body) > 0:
				if unsafe.SliceData(kept) != unsafe.SliceData(edge) {
					t.Fatalf("declared %d: the edge held the body, yet the relay kept a copy", declared)
				}
			case cap(kept) != len(kept):
				t.Fatalf("declared %d: a kept copy of len %d has cap %d, want it sealed", declared, len(kept), cap(kept))
			}
			if writer && !bytes.Equal(viewer, want) {
				t.Fatalf("declared %d: wrote %q of %q", declared, viewer, want)
			}
			return
		}
		var derr *dash.Error
		if !errors.As(err, &derr) || derr.Kind != dash.KindTransient {
			t.Fatalf("declared %d, body %d bytes: %v, want a transient *dash.Error", declared, len(body), err)
		}
		if kept != nil {
			t.Fatalf("declared %d, body %d bytes: a failed relay kept %d bytes for a replica", declared, len(body), len(kept))
		}
		if declared >= 0 && int64(len(viewer)) > declared {
			t.Fatalf("declared %d: the viewer got %d bytes", declared, len(viewer))
		}
		if hop || declared < int64(len(body)) {
			return
		}

		// The same exchange seen from the front, where the edges' loops send
		// the body short of its declared length (a longer one they cut at
		// it): neither edge's answer can be used, so the origin serves and
		// nothing is written through.
		got, err := c.Chunk(context.Background(), key.Video, key.Quality, key.Tile, key.Index, key.Layer)
		if err != nil || string(got) != string(originBody(key)) {
			t.Fatalf("declared %d, body %d bytes: Chunk = %q, %v; want the origin's body", declared, len(body), got, err)
		}
		if n := c.Warms(); n != 0 {
			t.Fatalf("declared %d, body %d bytes: %d warm writes of a broken body", declared, len(body), n)
		}
	})
}

// hopStream opens a hop exchange to ln, which answers its one GET with a
// 200 declaring length — no length, and Connection: close, when it is
// negative — and body, then closes. served is closed once it has.
func hopStream(t *testing.T, ln net.Listener, length int64, body []byte) (*hopTransport, chunkStream, <-chan struct{}) {
	t.Helper()
	head := "HTTP/1.1 200 OK\r\nConnection: close\r\n\r\n"
	if length >= 0 {
		head = fmt.Sprintf("HTTP/1.1 200 OK\r\nContent-Length: %d\r\n\r\n", length)
	}
	served := make(chan struct{})
	go func() {
		defer close(served)
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		// Read the request whole, so the close is a FIN and not a reset.
		if _, err := http.ReadRequest(bufio.NewReader(conn)); err == nil {
			conn.Write(append([]byte(head), body...))
		}
	}()
	pool := newHopTransport(tcpNetwork{}, ln.Addr().String(), 1)
	st, err := pool.get(context.Background(), hopTarget{path: "/v/fuzz/c/0/0/0"})
	if err != nil {
		t.Fatal(err)
	}
	return pool, st, served
}
