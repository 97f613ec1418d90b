package cluster

import (
	"bytes"
	"context"
	"errors"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strconv"
	"sync/atomic"
	"testing"
	"time"

	"sperke/internal/dash"
	"sperke/internal/obs"
	"sperke/internal/serve"
)

// idleLen reports how many connections the pool holds.
func (t *hopTransport) idleLen() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.idle)
}

// recoverCounting brings a killed wire edge back by hand on a listener
// that counts the connections it accepts; wrap, when not nil, wraps each
// one.
func recoverCounting(t *testing.T, edge *Node, wrap func(net.Conn) net.Conn) *atomic.Int64 {
	t.Helper()
	ln, err := net.Listen("tcp", edge.Addr())
	if err != nil {
		t.Fatal(err)
	}
	accepted := new(atomic.Int64)
	edge.serveOn(countingListener{Listener: ln, accepted: accepted, wrap: wrap})
	edge.down.Store(false)
	edge.accepting.Store(true)
	return accepted
}

// ownedKeys returns up to n of the wire keys edge is the first-ranked
// owner of, failing the test when it owns fewer.
func ownedKeys(t *testing.T, c *Cluster, edge *Node, n int) []serve.ChunkKey {
	t.Helper()
	var owned []serve.ChunkKey
	for _, key := range wireKeys(wireVideo()) {
		if Rank(key, c.NodeNames())[0] == edge.ID() && len(owned) < n {
			owned = append(owned, key)
		}
	}
	if len(owned) < n {
		t.Fatalf("%s owns %d of the wire keys, need %d", edge.ID(), len(owned), n)
	}
	return owned
}

// newWireCluster is a three-edge cluster on real listeners whose
// failure detector trips on one failure, so any failure charged to an
// edge shows as a down transition.
func newWireCluster(t *testing.T) (*Cluster, *obs.Registry) {
	t.Helper()
	reg := obs.NewRegistry()
	c, err := New(&countingOrigin{}, WithNodes(3), WithWire(true), WithCatalog(wireCatalog(t, wireVideo())),
		WithObs(reg), WithHealth(HealthConfig{FailThreshold: 1}))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		for _, n := range c.Nodes() {
			n.retire()
		}
	})
	return c, reg
}

// TestHopStaleConnectionRedialsOnce: a crash and restart leaves the
// router's pool to the edge full of connections the edge closed. The
// next request finds that out before the first response byte, re-sends
// on one fresh dial and drops the rest of the pool with it: one
// connection accepted, nothing charged to the edge, no failover.
func TestHopStaleConnectionRedialsOnce(t *testing.T) {
	c, reg := newWireCluster(t)
	edge := c.Nodes()[0]
	owned := ownedKeys(t, c, edge, 8)
	// Eight exchanges open at once, then all read to the end: eight idle
	// connections.
	ctx := context.Background()
	var streams []dash.ChunkStream
	for _, key := range owned {
		st, _, err := edge.open(ctx, key)
		if err != nil {
			t.Fatal(err)
		}
		streams = append(streams, st)
	}
	for _, st := range streams {
		if _, err := io.Copy(io.Discard, st.Body); err != nil {
			t.Fatal(err)
		}
		st.Body.Close()
	}
	if got := edge.hop.idleLen(); got != len(owned) {
		t.Fatalf("pool holds %d idle connections, want %d", got, len(owned))
	}

	edge.Kill()
	accepted := recoverCounting(t, edge, nil)
	key := owned[0]
	if rec := chunkGET(t, c.FrontDoor(), key); rec.Code != http.StatusOK || rec.Body.String() != string(originBody(key)) {
		t.Fatalf("front door answered %d with %q after the restart", rec.Code, rec.Body.String())
	}
	if got := accepted.Load(); got != 1 {
		t.Fatalf("the restarted edge accepted %d connections, want 1", got)
	}
	downs := reg.Counter("cluster.health.down_transitions").Value()
	if downs != 0 || c.met.reroutes.Value() != 0 || c.met.originFallbacks.Value() != 0 {
		t.Fatalf("down_transitions %d, reroutes %d, origin fallbacks %d; want 0, 0, 0",
			downs, c.met.reroutes.Value(), c.met.originFallbacks.Value())
	}
	if got := edge.hop.idleLen(); got != 1 {
		t.Fatalf("pool holds %d idle connections, want only the fresh one", got)
	}
}

// cutConn, once cut is set, passes a response head through and writes
// all but the last few bytes of the first write that carries body bytes,
// then closes: an edge dying mid-body. Through a wrapped connection the
// edge's head and body arrive as separate writes, since a writev needs
// the bare *net.TCPConn.
type cutConn struct {
	net.Conn
	cut *atomic.Bool
}

func (c cutConn) Write(p []byte) (int, error) {
	if !c.cut.Load() || bytes.HasPrefix(p, []byte("HTTP/1.1 ")) {
		return c.Conn.Write(p)
	}
	n, _ := c.Conn.Write(p[:len(p)-5])
	c.Conn.Close()
	return n, net.ErrClosed
}

// TestHopStaleConnectionMidBodyIsNotResent: a reused connection that
// fails after the response began is no idle connection gone stale, and
// bytes may already have been relayed; the relay gets the client's typed
// transient error and no request is re-sent.
func TestHopStaleConnectionMidBodyIsNotResent(t *testing.T) {
	c, _ := newWireCluster(t)
	edge := c.Nodes()[0]
	owned := ownedKeys(t, c, edge, 2)
	edge.Kill()
	var cut atomic.Bool
	accepted := recoverCounting(t, edge, func(conn net.Conn) net.Conn { return cutConn{conn, &cut} })
	ctx := context.Background()
	if _, body, err := c.walk(ctx, nil, owned[0], nil); err != nil || string(body) != string(originBody(owned[0])) {
		t.Fatalf("first fetch: %q, %v", body, err)
	}
	cut.Store(true)
	st, _, err := edge.open(ctx, owned[1])
	if err != nil {
		t.Fatalf("the response head arrived whole, yet open failed: %v", err)
	}
	_, _, err = c.relay(nil, st, false, owned[1], nil)
	var de *dash.Error
	if !errors.As(err, &de) || de.Kind != dash.KindTransient {
		t.Fatalf("relay error = %v, want a transient *dash.Error", err)
	}
	if got := accepted.Load(); got != 1 {
		t.Fatalf("the edge accepted %d connections, want 1: a failure mid-body was re-sent", got)
	}
	if got := edge.hop.idleLen(); got != 0 {
		t.Fatalf("pool holds %d idle connections after a body failed, want 0", got)
	}
}

// TestHopCancelClosesAndLeaksNothing: an exchange that ends before its
// body does — the viewer hung up, or its context was canceled while a
// read was blocked — closes its connection instead of pooling it; a
// cancel that lands after the body ended, or races its end, never leaves
// a past deadline on a pooled connection for the next exchange; a
// connection returned after retire is closed; and once every exchange
// and the server are closed, no goroutine is left.
func TestHopCancelClosesAndLeaksNothing(t *testing.T) {
	before := runtime.NumGoroutine()
	body := bytes.Repeat([]byte("x"), 64<<10)
	length := []string{strconv.Itoa(len(body))}
	srv := httptest.NewUnstartedServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch r.URL.Path {
		case "/small":
			w.Write(body[:100])
		case "/stall":
			w.Header()["Content-Length"] = length
			w.Write(body[:len(body)/2])
			w.(http.Flusher).Flush()
			select {
			case <-r.Context().Done(): // the router hung up
			case <-time.After(2 * time.Second):
			}
		default:
			w.Header()["Content-Length"] = length
			w.Write(body)
		}
	}))
	var opened, closed atomic.Int64
	srv.Config.ConnState = func(_ net.Conn, s http.ConnState) {
		switch s {
		case http.StateNew:
			opened.Add(1)
		case http.StateClosed:
			closed.Add(1)
		}
	}
	srv.Start()
	hop := newHopTransport(srv.Listener.Addr().String(), 8)
	get := func(ctx context.Context, path string) *http.Response {
		t.Helper()
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, srv.URL+path, nil)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := hop.RoundTrip(req)
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}
	readAll := func(resp *http.Response) {
		t.Helper()
		defer resp.Body.Close()
		if got, err := io.ReadAll(resp.Body); err != nil || len(got) != len(body) {
			t.Fatalf("read %d bytes, err %v; want %d", len(got), err, len(body))
		}
	}
	ctx := context.Background()
	readAll(get(ctx, "/"))

	// A viewer hang-up: the body closed before its end.
	resp := get(ctx, "/")
	io.ReadFull(resp.Body, make([]byte, 1<<10))
	resp.Body.Close()
	if got := hop.idleLen(); got != 0 {
		t.Fatalf("a body closed before its end left %d idle connections, want 0", got)
	}

	// A cancel while a read waits on bytes the edge is not sending.
	cctx, cancel := context.WithCancel(ctx)
	resp = get(cctx, "/stall")
	if _, err := io.ReadFull(resp.Body, make([]byte, len(body)/2)); err != nil {
		t.Fatal(err)
	}
	time.AfterFunc(10*time.Millisecond, cancel)
	if _, err := resp.Body.Read(make([]byte, 1)); !errors.Is(err, context.Canceled) {
		t.Fatalf("blocked read after cancel: err %v, want context.Canceled", err)
	}
	resp.Body.Close()
	if got := hop.idleLen(); got != 0 {
		t.Fatalf("a canceled exchange left %d idle connections, want 0", got)
	}

	// A cancel that fired before the body's end was read closes the
	// connection even when the read reaches EOF from bytes already
	// buffered: the cancel's past deadline may land at any moment.
	cctx, cancel = context.WithCancel(ctx)
	resp = get(cctx, "/small")
	cancel()
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if got := hop.idleLen(); got != 0 {
		t.Fatalf("an exchange canceled before its end left %d idle connections, want 0", got)
	}

	// A deadline that passes after its exchange ended is not the next
	// exchange's.
	dctx, dcancel := context.WithTimeout(ctx, 20*time.Millisecond)
	readAll(get(dctx, "/"))
	<-dctx.Done()
	dcancel()
	readAll(get(ctx, "/"))

	// Cancels after the body's end, and racing it: whichever wins, the
	// next exchange gets a connection with no past deadline on it.
	for i := 0; i < 50; i++ {
		cctx, cancel := context.WithCancel(ctx)
		resp := get(cctx, "/")
		if i%2 == 0 {
			go cancel()
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		cancel()
		readAll(get(ctx, "/"))
	}

	// A connection returned after retire is closed, not pooled.
	resp = get(ctx, "/")
	hop.drop(true)
	readAll(resp)
	if got := hop.idleLen(); got != 0 {
		t.Fatalf("retired pool holds %d idle connections, want 0", got)
	}
	waitFor(t, "every connection the server accepted to close", func() bool { return closed.Load() == opened.Load() })
	if reused := opened.Load(); reused > 60 {
		t.Fatalf("%d connections for 107 exchanges: clean endings are not pooled", reused)
	}

	srv.Close()
	waitFor(t, "goroutines back to their baseline", func() bool { return runtime.NumGoroutine() <= before })
}

// waitFor polls cond for up to three seconds.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(3 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("waited 3s for %s", what)
		}
		time.Sleep(10 * time.Millisecond)
	}
}
