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
	"runtime"
	"strconv"
	"strings"
	"sync"
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

// newWireCluster is a three-edge wire cluster with opts whose failure
// detector trips on one failure, so any failure charged to an edge shows
// as a down transition.
func newWireCluster(t *testing.T, opts ...Option) (*Cluster, *obs.Registry) {
	t.Helper()
	reg := obs.NewRegistry()
	opts = append(opts, WithNodes(3), WithObs(reg), WithHealth(HealthConfig{FailThreshold: 1}))
	return newCarrierCluster(t, "tcp", &countingOrigin{}, opts...), reg
}

// TestHopStaleConnectionRedialsOnce: a crash and restart leaves the
// router's pool to the edge full of connections the edge closed. The
// next request finds that out before the first response byte, re-sends
// on one fresh dial and drops the rest of the pool with it: one
// connection accepted, nothing charged to the edge, no failover.
func TestHopStaleConnectionRedialsOnce(t *testing.T) {
	t.Run("tcp", func(t *testing.T) {
		f := &faultNet{}
		c, reg := newWireCluster(t, withFaults(f))
		edge := c.Nodes()[0]
		owned := ownedKeys(t, c, edge, 8)
		// Eight exchanges open at once, then all read to the end: eight idle
		// connections.
		ctx := context.Background()
		var streams []chunkStream
		for _, key := range owned {
			st, _, err := edge.open(ctx, key)
			if err != nil {
				t.Fatal(err)
			}
			streams = append(streams, st)
		}
		for _, st := range streams {
			if _, err := io.Copy(io.Discard, st.body); err != nil {
				t.Fatal(err)
			}
			st.body.Close()
		}
		if got := edge.hop.idleLen(); got != len(owned) {
			t.Fatalf("pool holds %d idle connections, want %d", got, len(owned))
		}

		edge.kill()
		edge.recover()
		accepted := &f.at(edge.Addr()).accepts
		before := accepted.Load()
		key := owned[0]
		if rec := chunkGET(t, c.FrontDoor(), key); rec.Code != http.StatusOK || rec.Body.String() != string(originBody(key)) {
			t.Fatalf("front door answered %d with %q after the restart", rec.Code, rec.Body.String())
		}
		if got := accepted.Load() - before; got != 1 {
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
	})
}

// TestHopStaleConnectionMidBodyIsNotResent: a reused connection that
// fails after the response began is no idle connection gone stale, and
// bytes may already have been relayed; the relay gets the hop's typed
// transient error and no request is re-sent.
func TestHopStaleConnectionMidBodyIsNotResent(t *testing.T) {
	t.Run("tcp", func(t *testing.T) {
		f := &faultNet{scripted: true}
		c, _ := newWireCluster(t, withFaults(f))
		edge := c.Nodes()[0]
		owned := ownedKeys(t, c, edge, 2)
		script := f.at(edge.Addr())
		accepted := &script.accepts
		ctx := context.Background()
		if _, body, err := c.walk(ctx, nil, owned[0], nil); err != nil || string(body) != string(originBody(owned[0])) {
			t.Fatalf("first fetch: %q, %v", body, err)
		}
		// The edge dies mid-body: all but the last few bytes go out.
		script.then(connFault{verb: cutAt, at: len(originBody(owned[1])) - 5})
		st, held, err := edge.open(ctx, owned[1])
		if err != nil {
			t.Fatalf("the response head arrived whole, yet open failed: %v", err)
		}
		_, body, err := relay(nil, st, held, false, owned[1])
		var de *dash.Error
		if !errors.As(err, &de) || de.Kind != dash.KindTransient || body != nil {
			t.Fatalf("relay = %d bytes, %v; want no body and a transient *dash.Error, though the edge holds it", len(body), err)
		}
		if got := accepted.Load(); got != 1 {
			t.Fatalf("the edge accepted %d connections, want 1: a failure mid-body was re-sent", got)
		}
		if got := edge.hop.idleLen(); got != 0 {
			t.Fatalf("pool holds %d idle connections after a body failed, want 0", got)
		}
	})
}

// TestHopCancelClosesAndLeaksNothing: an exchange that ends before its
// body does — the viewer hung up, or its context was canceled while a
// read was blocked — closes its connection instead of pooling it; a
// cancel that lands after the body ended, or races its end, never leaves
// a past deadline on a pooled connection for the next exchange; a
// connection returned after retire is closed; and once every exchange
// and the server are closed, no goroutine is left. The cancel hook hangs
// on the caller's own context: no context is derived per exchange.
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
	hop := newHopTransport(tcpNetwork{}, srv.Listener.Addr().String(), 8)
	get := func(ctx context.Context, path string) chunkStream {
		t.Helper()
		st, err := hop.get(ctx, path)
		if err != nil {
			t.Fatal(err)
		}
		return st
	}
	readAll := func(st chunkStream) {
		t.Helper()
		defer st.body.Close()
		if got, err := io.ReadAll(st.body); err != nil || len(got) != len(body) {
			t.Fatalf("read %d bytes, err %v; want %d", len(got), err, len(body))
		}
	}
	ctx := context.Background()
	readAll(get(ctx, "/"))

	// A viewer hang-up: the body closed before its end.
	st := get(ctx, "/")
	io.ReadFull(st.body, make([]byte, 1<<10))
	st.body.Close()
	if got := hop.idleLen(); got != 0 {
		t.Fatalf("a body closed before its end left %d idle connections, want 0", got)
	}

	// A cancel while a read waits on bytes the edge is not sending.
	cctx, cancel := context.WithCancel(ctx)
	st = get(cctx, "/stall")
	if _, err := io.ReadFull(st.body, make([]byte, len(body)/2)); err != nil {
		t.Fatal(err)
	}
	time.AfterFunc(10*time.Millisecond, cancel)
	_, err := st.body.Read(make([]byte, 1))
	var de *dash.Error
	if !errors.As(err, &de) || de.Kind != dash.KindCanceled || !errors.Is(err, context.Canceled) {
		t.Fatalf("blocked read after cancel: err %v, want a KindCanceled *dash.Error wrapping context.Canceled", err)
	}
	st.body.Close()
	if got := hop.idleLen(); got != 0 {
		t.Fatalf("a canceled exchange left %d idle connections, want 0", got)
	}

	// A cancel that fired before the body's end was read closes the
	// connection even when the read reaches EOF from bytes already
	// buffered: the cancel's past deadline may land at any moment.
	cctx, cancel = context.WithCancel(ctx)
	st = get(cctx, "/small")
	cancel()
	io.Copy(io.Discard, st.body)
	st.body.Close()
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
		st := get(cctx, "/")
		if i%2 == 0 {
			go cancel()
		}
		io.Copy(io.Discard, st.body)
		st.body.Close()
		cancel()
		readAll(get(ctx, "/"))
	}

	// A connection returned after retire is closed, not pooled.
	st = get(ctx, "/")
	hop.drop(true)
	readAll(st)
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

// TestHopStalledDialHoldsNoOtherRequest: a dial to an edge that stalls
// leaves the pool to that edge free. A second request to the same edge
// dials and completes while the first still waits, and the first
// completes once its dial goes through.
func TestHopStalledDialHoldsNoOtherRequest(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte("ok"))
	}))
	defer srv.Close()
	f := &faultNet{}
	stall := &dialStall{began: make(chan struct{}), release: make(chan struct{})}
	f.stall.Store(stall)
	var once sync.Once
	release := func() { once.Do(func() { close(stall.release) }) }
	defer release()
	hop := newHopTransport(f, srv.Listener.Addr().String(), 2)
	fetch := func() error {
		st, err := hop.get(context.Background(), "/v")
		if err != nil {
			return err
		}
		defer st.body.Close()
		if got, err := io.ReadAll(st.body); err != nil || string(got) != "ok" {
			return fmt.Errorf("read %q, %v", got, err)
		}
		return nil
	}
	first := make(chan error, 1)
	go func() { first <- fetch() }()
	<-stall.began
	second := make(chan error, 1)
	go func() { second <- fetch() }()
	select {
	case err := <-second:
		if err != nil {
			t.Fatalf("second request: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("a stalled dial held the second request to the same edge for 10 s")
	}
	release()
	if err := <-first; err != nil {
		t.Fatalf("first request, after its dial went through: %v", err)
	}
}

// TestHopRequestLine: what an edge reads of a hop exchange is a GET of
// dash.ChunkPath's bytes exactly, over HTTP/1.1, addressed to the edge's
// own address, with no User-Agent, which nothing reads.
func TestHopRequestLine(t *testing.T) {
	type seen struct {
		method, uri, host, proto string
		agent                    bool
	}
	got := make(chan seen, 1)
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		_, agent := r.Header["User-Agent"]
		got <- seen{r.Method, r.RequestURI, r.Host, r.Proto, agent}
		w.Write([]byte("ok"))
	}))
	defer srv.Close()
	addr := srv.Listener.Addr().String()
	hop := newHopTransport(tcpNetwork{}, addr, 1)
	defer hop.drop(true)
	path := dash.ChunkPath("x/y 50%?#\r\n", 1, 2, 3, true)
	st, err := hop.get(context.Background(), path)
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(st.body)
	st.body.Close()
	if err != nil || string(body) != "ok" {
		t.Fatalf("body %q, err %v; want \"ok\"", body, err)
	}
	if s, want := <-got, (seen{http.MethodGet, path, addr, "HTTP/1.1", false}); s != want {
		t.Fatalf("the edge read %+v, want %+v", s, want)
	}
}

// FuzzHopExchange: whatever bytes an edge answers one hop exchange with,
// the exchange returns a response or a typed *dash.Error; a response's
// body yields exactly its declared Content-Length or fails with a typed
// transient error; the connection is pooled only when the reply ended
// exactly at the body's end under keep-alive; nothing panics; and no
// goroutine outlives the exchange. The edge is a loopback listener that
// reads the request head, writes the reply in one write and closes.
//
// A reply that fits the router's buffer (hopBufLen) arrives in it whole,
// so every byte past the body is one the hop sees, and such a reply is
// held to the rule both ways for a 200. Past that size a byte past the
// body can still be in the kernel when the body ends, where nothing sees
// it without reading on; no edge sends one, so a longer reply is held to
// the rest of the rule: pooled only after a whole body under keep-alive.
func FuzzHopExchange(f *testing.F) {
	for _, seed := range []string{
		"HTTP/1.1 200 OK\r\nContent-Length: 5\r\n\r\nhello",
		"HTTP/1.1 503 Service Unavailable\r\nRetry-After: 1\r\nContent-Length: 11\r\n\r\noverloaded\n",
		"HTTP/1.1 200 OK\r\nConnection: close\r\nContent-Length: 5\r\n\r\nhello",
		"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n5\r\nhello\r\n0\r\n\r\n",
		"HTTP/1.1 200 OK\r\nContent-Length: 10\r\n\r\nhello",
		"HTTP/1.1 200 OK\r\nContent-Length: 2000\r\n\r\n" + strings.Repeat("x", 2000),
		"HTTP/1.1 200 OK\r\nContent-Length: 5\r\n\r\nhelloHTTP/1.1 200 OK\r\n",
		"\x00garbage\r\n\r\n",
		"",
	} {
		f.Add([]byte(seed))
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(func() { ln.Close() })

	f.Fuzz(func(t *testing.T, reply []byte) {
		before := runtime.NumGoroutine()
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
				conn.Write(reply)
			}
		}()
		hop := newHopTransport(tcpNetwork{}, ln.Addr().String(), 1)
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()

		st, err := hop.get(ctx, "/v/fuzz/c/0/0/0")
		status200 := err == nil
		if err != nil {
			if _, ok := err.(*dash.Error); !ok {
				t.Fatalf("exchange failed with %T %v, want a *dash.Error", err, err)
			}
		} else {
			body, err := io.ReadAll(st.body)
			st.body.Close()
			var de *dash.Error
			switch {
			case err != nil && (!errors.As(err, &de) || de.Kind != dash.KindTransient):
				t.Fatalf("body read failed with %v, want a transient *dash.Error", err)
			case err == nil && st.length >= 0 && int64(len(body)) != st.length:
				t.Fatalf("body yielded %d bytes under a declared %d", len(body), st.length)
			}
			status200 = err == nil
		}
		pooled := hop.idleLen() == 1

		whole, exact := replyEnds(reply)
		switch {
		case pooled && !whole:
			t.Fatalf("pooled after a reply whose body did not end under keep-alive: %q", reply)
		case len(reply) <= hopBufLen && pooled && !exact:
			t.Fatalf("pooled after a reply with bytes past its body: %q", reply)
		case len(reply) <= hopBufLen && status200 && exact && !pooled:
			t.Fatalf("not pooled after a 200 that ended at its body's end under keep-alive: %q", reply)
		}
		hop.drop(true)
		cancel()
		<-served
		waitFor(t, "goroutines back to their baseline", func() bool { return runtime.NumGoroutine() <= before })
	})
}

// replyEnds parses reply as net/http does: whole reports that it is a
// response whose body ends under keep-alive, exact that nothing follows
// that end.
func replyEnds(reply []byte) (whole, exact bool) {
	r := bytes.NewReader(reply)
	br := bufio.NewReader(r)
	resp, err := http.ReadResponse(br, nil)
	if err != nil {
		return false, false
	}
	_, err = io.Copy(io.Discard, resp.Body)
	whole = err == nil && !resp.Close
	return whole, whole && br.Buffered() == 0 && r.Len() == 0
}

// recv receives from ch, failing the test if nothing arrives within
// 10 s, so a wait that would hang fails fast and names what it waited
// for.
func recv[T any](t *testing.T, what string, ch <-chan T) T {
	t.Helper()
	select {
	case v := <-ch:
		return v
	case <-time.After(10 * time.Second):
		t.Fatalf("waited 10s for %s", what)
	}
	var zero T
	return zero
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
