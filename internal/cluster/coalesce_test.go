package cluster

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
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

// waitForFollowers polls the coalescer until n followers are attached
// to key's flight — the deterministic "everyone is waiting" barrier
// the herd tests release against.
func waitForFollowers(t *testing.T, c *Cluster, key serve.ChunkKey, n int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		c.coal.mu.Lock()
		got := 0
		if f := c.coal.flights[key]; f != nil {
			got = f.followers
		}
		c.coal.mu.Unlock()
		if got == n {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("followers on %v = %d, want %d", key, got, n)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestHerdColdKeyCoalescesToOneOriginFetch is the tentpole acceptance
// on the materialized path: a seeded herd of concurrent cold requests
// for one key — against a cluster whose only edge can admit just one
// of them, so before coalescing every excess request shed straight to
// the origin — costs the origin exactly one synthesis, with every
// late arrival attached to the leader's flight. Counter equalities,
// not bounds. Run under -race in CI.
func TestHerdColdKeyCoalescesToOneOriginFetch(t *testing.T) {
	const herd = 8
	key := serve.ChunkKey{Video: "vid", Quality: 0, Tile: 0, Index: 0}
	origin := newBlockingOrigin(key)
	c, err := New(origin, WithNodes(1), withMaxInFlight(1), WithClock(sim.NewClock(1)))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	results := make(chan []byte, herd)
	errs := make(chan error, herd)
	fetch := func() {
		body, err := c.Chunk(context.Background(), key.Video, key.Quality, key.Tile, key.Index, key.Layer)
		results <- body
		errs <- err
	}
	go fetch() // the flight leader
	<-origin.arrived
	for i := 1; i < herd; i++ {
		go fetch()
	}
	waitForFollowers(t, c, key, herd-1)
	close(origin.release)
	for i := 0; i < herd; i++ {
		if err := <-errs; err != nil {
			t.Fatalf("herd member failed: %v", err)
		}
		if body := <-results; string(body) != string(originBody(key)) {
			t.Fatalf("herd body %q, want %q", body, originBody(key))
		}
	}
	if got := origin.count(); got != 1 {
		t.Fatalf("herd of %d cost %d origin fetches, want exactly 1", herd, got)
	}
	if got := c.Coalesced(); got != herd-1 {
		t.Fatalf("cluster.coalesced = %d, want exactly %d", got, herd-1)
	}
	if got := c.met.sheds.Value(); got != 0 {
		t.Fatalf("cluster.sheds = %d, want 0 — followers must never reach the saturated edge", got)
	}
}

// TestWireHerdStreamsColdKeyOnce is the tentpole acceptance over the
// wire: concurrent cold GETs for one key through the front door — the
// leader streaming from its edge's HTTP process, the followers
// attached to the flight's teed body — produce byte-identical bodies
// with declared Content-Length and exactly one origin synthesis.
func TestWireHerdStreamsColdKeyOnce(t *testing.T) {
	for _, carrier := range wireCarriers {
		t.Run(carrier, func(t *testing.T) {
			const herd = 6
			v := wireVideo()
			key := serve.ChunkKey{Video: v.ID, Quality: 0, Tile: 0, Index: 0}
			origin := newBlockingOrigin(key)
			c := newCarrierCluster(t, carrier, origin, WithNodes(2), WithClock(sim.NewClock(1)))
			front := c.FrontDoor()
			recs := make(chan *httptest.ResponseRecorder, herd)
			get := func() { recs <- chunkGET(t, front, key) }
			go get()
			<-origin.arrived
			for i := 1; i < herd; i++ {
				go get()
			}
			waitForFollowers(t, c, key, herd-1)
			close(origin.release)
			want := string(originBody(key))
			for i := 0; i < herd; i++ {
				rec := <-recs
				if rec.Code != http.StatusOK {
					t.Fatalf("herd GET status %d", rec.Code)
				}
				if rec.Body.String() != want {
					t.Fatalf("herd body %q, want %q", rec.Body.String(), want)
				}
				if cl := rec.Header().Get("Content-Length"); cl != fmt.Sprint(len(want)) {
					t.Fatalf("Content-Length %q, want %d", cl, len(want))
				}
			}
			if got := origin.count(); got != 1 {
				t.Fatalf("wire herd of %d cost %d origin fetches, want exactly 1", herd, got)
			}
			if got := c.Coalesced(); got != herd-1 {
				t.Fatalf("cluster.coalesced = %d, want exactly %d", got, herd-1)
			}
		})
	}
}

// TestCanceledLeaderDoesNotPoisonFollowers: the flight leader's caller
// cancels mid-synthesis. Followers must not inherit the cancellation —
// they fall back to their own ranked walk and still get bodies, with
// the edge-store singleflight keeping the retry to one synthesis.
func TestCanceledLeaderDoesNotPoisonFollowers(t *testing.T) {
	const followers = 3
	key := serve.ChunkKey{Video: "vid", Quality: 0, Tile: 0, Index: 0}
	origin := newBlockingOrigin(key)
	origin.honorCtx = true
	c, err := New(origin, WithNodes(1), WithClock(sim.NewClock(1)))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	leadCtx, cancelLead := context.WithCancel(context.Background())
	leadErr := make(chan error, 1)
	go func() {
		_, err := c.Chunk(leadCtx, key.Video, key.Quality, key.Tile, key.Index, key.Layer)
		leadErr <- err
	}()
	<-origin.arrived
	errs := make(chan error, followers)
	bodies := make(chan []byte, followers)
	for i := 0; i < followers; i++ {
		go func() {
			body, err := c.Chunk(context.Background(), key.Video, key.Quality, key.Tile, key.Index, key.Layer)
			bodies <- body
			errs <- err
		}()
	}
	waitForFollowers(t, c, key, followers)
	cancelLead()
	if err := <-leadErr; err == nil {
		t.Fatal("canceled leader returned no error")
	}
	// The followers retry on their own; the retry's synthesis blocks on
	// the origin until released.
	<-origin.arrived
	close(origin.release)
	for i := 0; i < followers; i++ {
		if err := <-errs; err != nil {
			t.Fatalf("follower failed after leader cancel: %v", err)
		}
		if body := <-bodies; string(body) != string(originBody(key)) {
			t.Fatalf("follower body %q, want %q", body, originBody(key))
		}
	}
	if got := c.Coalesced(); got != 0 {
		t.Fatalf("cluster.coalesced = %d after a failed flight, want 0", got)
	}
}

// TestFetchWireRejectsTruncatedBody: a drained edge body shorter than
// the declared Content-Length must fail with a typed transient error,
// not hand short bytes to the caller (or a replica's cache) as a
// valid-looking chunk.
func TestFetchWireRejectsTruncatedBody(t *testing.T) {
	v := wireVideo()
	origin := &countingOrigin{}
	c, err := New(origin, WithNodes(1), WithLoopback(), withEdge(fixedEdge(100, []byte("short"), false)),
		WithCatalog(wireCatalog(t, v)), WithClock(sim.NewClock(1)))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	key := serve.ChunkKey{Video: v.ID, Quality: 0, Tile: 0, Index: 0}
	st, held, err := c.Node("edge-0").open(context.Background(), key)
	if err != nil {
		t.Fatal(err)
	}
	_, _, err = c.relay(nil, st, held, false, key, nil)
	var derr *dash.Error
	if !errors.As(err, &derr) {
		t.Fatalf("fetchWire on a truncated body returned %v, want *dash.Error", err)
	}
	if derr.Kind != dash.KindTransient {
		t.Fatalf("Kind = %v, want transient", derr.Kind)
	}
	if !strings.Contains(derr.Error(), "length mismatch") {
		t.Fatalf("error %q does not name the length mismatch", derr)
	}
}

// TestProxyBodyRejectsTruncatedStream is the streaming-path analog:
// the router relayed fewer bytes than the edge declared, so the
// response is ruined and must surface as a typed transient error that
// feeds the failure detector, never as a success.
func TestProxyBodyRejectsTruncatedStream(t *testing.T) {
	v := wireVideo()
	origin := &countingOrigin{}
	c, err := New(origin, WithNodes(1), WithLoopback(), withEdge(fixedEdge(100, []byte("short"), false)),
		WithCatalog(wireCatalog(t, v)), WithClock(sim.NewClock(1)))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	rec := httptest.NewRecorder()
	_, err = c.StreamChunk(context.Background(), rec, v.ID, 0, 0, 0, false)
	var derr *dash.Error
	if !errors.As(err, &derr) || derr.Kind != dash.KindTransient {
		t.Fatalf("streamChunk on a truncated edge stream returned %v, want transient *dash.Error", err)
	}
	if !strings.Contains(derr.Error(), "length mismatch") {
		t.Fatalf("error %q does not name the length mismatch", derr)
	}
}

// failingOrigin errors every synthesis.
type failingOrigin struct{}

func (o *failingOrigin) Chunk(ctx context.Context, videoID string, quality, tile, index int, layer bool) ([]byte, error) {
	return nil, errors.New("origin storage offline")
}

// TestStreamOriginFetchCountsOnSuccessOnly is the accounting
// regression for the wire fallback: a failed origin stream used to
// increment cluster.origin_fetches before streamOrigin ran, skewing
// the offload ratio and the E23 equalities. Failures must land under
// cluster.origin_stream_errors; only completed streams count as
// fetches.
func TestStreamOriginFetchCountsOnSuccessOnly(t *testing.T) {
	v := wireVideo()
	c, err := New(&failingOrigin{}, WithNodes(2), WithLoopback(),
		WithCatalog(wireCatalog(t, v)), WithClock(sim.NewClock(1)))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for _, id := range c.NodeNames() {
		c.KillNode(id)
	}
	rec := chunkGET(t, c.FrontDoor(), serve.ChunkKey{Video: v.ID})
	if rec.Code == http.StatusOK {
		t.Fatalf("GET with a dead origin returned %d", rec.Code)
	}
	if got := c.met.originFallbacks.Value(); got != 1 {
		t.Fatalf("origin_fallbacks = %d, want 1", got)
	}
	if got := c.met.originFetches.Value(); got != 0 {
		t.Fatalf("origin_fetches = %d after a failed stream, want 0", got)
	}
	if got := c.met.originStreamErrs.Value(); got != 1 {
		t.Fatalf("origin_stream_errors = %d, want 1", got)
	}
	if req, fetches := c.OffloadCounts(); req != 1 || fetches != 0 {
		t.Fatalf("OffloadCounts = (%d, %d), want (1, 0)", req, fetches)
	}
}

// TestStreamOriginFetchCountedOnSuccess is the passing half: a
// completed fallback stream counts exactly once.
func TestStreamOriginFetchCountedOnSuccess(t *testing.T) {
	v := wireVideo()
	origin := &countingOrigin{}
	c, err := New(origin, WithNodes(2), WithLoopback(),
		WithCatalog(wireCatalog(t, v)), WithClock(sim.NewClock(1)))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for _, id := range c.NodeNames() {
		c.KillNode(id)
	}
	key := serve.ChunkKey{Video: v.ID}
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
	if got := c.met.originStreamErrs.Value(); got != 0 {
		t.Fatalf("origin_stream_errors = %d, want 0", got)
	}
}

// TestChunkOriginFallbackCountsOnSuccessOnly covers the materialized
// path's fallback accounting the same way.
func TestChunkOriginFallbackCountsOnSuccessOnly(t *testing.T) {
	c, err := New(&failingOrigin{}, WithNodes(1), WithClock(sim.NewClock(1)))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.KillNode("edge-0")
	if _, err := c.Chunk(context.Background(), "vid", 0, 0, 0, false); err == nil {
		t.Fatal("Chunk with a dead origin succeeded")
	}
	if got := c.met.originFetches.Value(); got != 0 {
		t.Fatalf("origin_fetches = %d after a failed fallback, want 0", got)
	}
	if got := c.met.originChunkErrs.Value(); got != 1 {
		t.Fatalf("origin_errors = %d, want 1", got)
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
// and queues no warm.
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
	f.Fuzz(func(t *testing.T, declared int64, body []byte, replicate, writer, held, hop bool) {
		// Two edges that both answer every GET with this length and body.
		c, err := New(&countingOrigin{}, WithNodes(2), WithReplication(2), WithLoopback(), withEdge(fixedEdge(declared, body, false)),
			WithCatalog(wireCatalog(t, v)), WithClock(sim.NewClock(1)))
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		// The edge's copy, when it holds one, is the body the stream
		// carries, in a slice of its own.
		var edge []byte
		if held {
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
				n, kept, err = c.relay(w, st, edge, replicate, key, nil)
			}
			_, viewer = rawGET(t, front.Listener.Addr().String(), "/")
			<-done
		case writer:
			rec := httptest.NewRecorder()
			n, kept, err = c.relay(rec, st, edge, replicate, key, nil)
			viewer = rec.Body.Bytes()
		default:
			n, kept, err = c.relay(nil, st, edge, replicate, key, nil)
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
		c.DrainWarms()
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
	st, err := pool.get(context.Background(), "/v/fuzz/c/0/0/0")
	if err != nil {
		t.Fatal(err)
	}
	return pool, st, served
}
