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
	"regexp"
	"runtime"
	"slices"
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
		st, err := hop.get(ctx, hopTarget{path: path})
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
		st, err := hop.get(context.Background(), hopTarget{path: "/v"})
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
	key := serve.ChunkKey{Video: "x/y 50%?#\r\n", Quality: 1, Tile: 2, Index: 3, Layer: true}
	path := dash.ChunkPath(key.Video, key.Quality, key.Tile, key.Index, key.Layer)
	st, err := hop.get(context.Background(), hopTarget{key: key})
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
// net/http is the head reader's twin: http.ReadResponse reads the same
// bytes. Every head readHead accepts, net/http reads with the same
// status, the same declared length and the same keep-alive; a head
// net/http reads and readHead refuses must be one hopRefusals names; and
// the live exchange ends as readHead read the head.
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
		"HTTP/1.1 200 OK\r\nconnection: CLOSE\r\ncontent-length: 5\r\n\r\nhello",
		"HTTP/1.1 200\r\nContent-Type: video/iso.segment\r\nContent-Length: 0\r\n\r\n",
		"HTTP/1.1 200 OK\r\nConnection: close\r\n\r\nhello",
		"HTTP/1.1 200 OK\r\n\r\nhello",
		"HTTP/1.1 400 Bad Request\r\nContent-Type: text/plain; charset=utf-8\r\nContent-Length: 15\r\nConnection: close\r\n\r\n400 Bad Request",
		"HTTP/1.1 200 OK\r\nContent-Length: 9223372036854775808\r\n\r\n",
		"HTTP/1.1 200 OK\r\nX-A: a\x01b\r\nContent-Length: 5\r\n\r\nhello",
		"HTTP/1.1 200 OK\r\nContent-Length: 10\r\nContent-Length: 5\r\n\r\nhello",
	} {
		f.Add([]byte(seed))
	}
	for _, r := range hopRefusals {
		resp, err := http.ReadResponse(bufio.NewReader(strings.NewReader(r.seed)), nil)
		if err != nil || readHeadOf([]byte(r.seed)) == nil || !r.is(headLines([]byte(r.seed)), resp) {
			f.Fatalf("refusal %q: net/http reads its seed (%v), readHead refuses it and the entry names it; want all three", r.why, err)
		}
		f.Add([]byte(r.seed))
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(func() { ln.Close() })

	f.Fuzz(func(t *testing.T, reply []byte) {
		var head hopBody
		herr := head.readHead(bufio.NewReaderSize(bytes.NewReader(reply), hopBufLen))
		resp, nerr := http.ReadResponse(bufio.NewReader(bytes.NewReader(reply)), nil)
		switch {
		case herr == nil && nerr != nil:
			t.Fatalf("readHead reads a head net/http refuses (%v): %q", nerr, reply)
		case herr == nil && (head.status != resp.StatusCode || head.length != resp.ContentLength || (head.length >= 0 && !head.close) == resp.Close):
			t.Fatalf("readHead reads status %d, length %d, close %t; net/http %d, %d, close %t: %q",
				head.status, head.length, head.close, resp.StatusCode, resp.ContentLength, resp.Close, reply)
		case herr != nil && nerr == nil && !slices.ContainsFunc(hopRefusals, func(r hopRefusal) bool { return r.is(headLines(reply), resp) }):
			t.Fatalf("readHead refuses (%v) a head net/http reads, and no entry of hopRefusals names it: %q", herr, reply)
		}

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

		st, err := hop.get(ctx, hopTarget{path: "/v/fuzz/c/0/0/0"})
		de, isDash := err.(*dash.Error)
		switch {
		case err != nil && !isDash:
			t.Fatalf("exchange failed with %T %v, want a *dash.Error", err, err)
		case herr == nil && head.status == http.StatusOK && (err != nil || st.length != head.length):
			t.Fatalf("readHead read a 200 of length %d, yet the exchange returned length %d, %v", head.length, st.length, err)
		case herr == nil && head.status != http.StatusOK && (err == nil || de.Status != head.status):
			t.Fatalf("readHead read a %d, yet the exchange returned %v", head.status, err)
		case herr != nil && (err == nil || de.Status != 0 || de.Kind != dash.KindTransient):
			t.Fatalf("readHead refused the head (%v), yet the exchange returned %v", herr, err)
		}
		status200 := err == nil
		if err == nil {
			body, err := io.ReadAll(st.body)
			st.body.Close()
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

// hopRefusal is a form of response head net/http reads and readHead
// refuses, with a seed of that form and why no edge sends one: a hop's
// head is edgeConn.writeHead's or reject's. is reports the form, given
// the head's lines (headLines) and net/http's reading of it.
type hopRefusal struct {
	seed, why string
	is        func(head []string, resp *http.Response) bool
}

var hopRefusals = []hopRefusal{{
	"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n5\r\nhello\r\n0\r\n\r\n",
	"writeHead sends a body under its Content-Length, or with Connection: close to the close; never chunked",
	func(h []string, _ *http.Response) bool { return len(headerValues(h, "Transfer-Encoding")) > 0 },
}, {
	"HTTP/1.0 200 OK\r\nContent-Length: 5\r\n\r\nhello",
	"writeHead and reject write an HTTP/1.1 status line",
	func(h []string, _ *http.Response) bool { return !strings.HasPrefix(h[0], "HTTP/1.1 ") },
}, {
	"HTTP/1.1  200 OK\r\nContent-Length: 5\r\n\r\nhello",
	"writeHead and reject write the status as its three digits, after one space",
	func(h []string, _ *http.Response) bool { return !statusLine.MatchString(h[0]) },
}, {
	"HTTP/1.1 204 No Content\r\n\r\n",
	"the edge's handler answers a GET that has no conditional header, so never with 1xx, 204 or 304",
	func(_ []string, resp *http.Response) bool {
		return resp.StatusCode/100 == 1 || resp.StatusCode == http.StatusNoContent || resp.StatusCode == http.StatusNotModified
	},
}, {
	"HTTP/1.1 200 OK\r\nContent-Length: 5\r\nContent-Length: 5\r\n\r\nhello",
	"writeHead deletes the handler's Content-Length and writes the one it declares",
	func(h []string, _ *http.Response) bool { return len(headerValues(h, "Content-Length")) > 1 },
}, {
	"HTTP/1.1 200 OK\r\nX-A: a\r\n b\r\nContent-Length: 5\r\n\r\nhello",
	"http.Header.Write, which writes the handler's headers, turns a newline in a value into a space, so no line is continued",
	func(h []string, _ *http.Response) bool {
		return slices.ContainsFunc(h[1:], func(l string) bool { return l != "" && (l[0] == ' ' || l[0] == '\t') })
	},
}, {
	"HTTP/1.1 200 OK\r\nX A: b\r\nContent-Length: 5\r\n\r\nhello",
	"http.Header.Write drops a header whose name is not a token",
	func(h []string, _ *http.Response) bool {
		return slices.ContainsFunc(h[1:], func(l string) bool { name, _, _ := strings.Cut(l, ":"); return strings.Contains(name, " ") })
	},
}, {
	"HTTP/1.1 200 OK\nContent-Length: 5\n\nhello",
	"writeHead, http.Header.Write and reject end every line with CRLF",
	func(h []string, _ *http.Response) bool {
		return slices.ContainsFunc(h, func(l string) bool { return !strings.HasSuffix(l, "\r") })
	},
}, {
	"HTTP/1.1 200 OK\r\nX-Long: " + strings.Repeat("x", hopBufLen) + "\r\nContent-Length: 5\r\n\r\nhello",
	"an edge's head lines are its status line and its handler's few short headers, far shorter than hopBufLen",
	func(h []string, _ *http.Response) bool {
		return slices.ContainsFunc(h, func(l string) bool { return len(l)+1 > hopBufLen })
	},
}, {
	"HTTP/1.1 200 OK\r\nConnection: keep-alive\r\nContent-Length: 5\r\n\r\nhello",
	"writeHead writes Connection only as Connection: close, and the edge's handler sets none",
	func(h []string, _ *http.Response) bool {
		return slices.ContainsFunc(headerValues(h, "Connection"), func(v string) bool { return !strings.EqualFold(v, "close") })
	},
}}

// statusLine is the status line readHead reads, its LF cut.
var statusLine = regexp.MustCompile(`^HTTP/1\.1 [0-9]{3}( |\r?$)`)

// headLines splits a reply's head into lines, each without its LF, up to
// and with the blank line that ends it.
func headLines(reply []byte) []string {
	var head []string
	for _, l := range strings.SplitAfter(string(reply), "\n") {
		l = strings.TrimSuffix(l, "\n")
		if head = append(head, l); len(head) > 1 && (l == "" || l == "\r") {
			break
		}
	}
	return head
}

// headerValues are the values, trimmed, of the header lines in head
// whose name is name in any case.
func headerValues(head []string, name string) []string {
	var vs []string
	for _, l := range head[1:] {
		if n, v, ok := strings.Cut(l, ":"); ok && strings.EqualFold(n, name) {
			vs = append(vs, strings.Trim(v, " \t\r"))
		}
	}
	return vs
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

// readHeadOf is readHead's error on reply.
func readHeadOf(reply []byte) error {
	var b hopBody
	return b.readHead(bufio.NewReaderSize(bytes.NewReader(reply), hopBufLen))
}

// TestHopExchangeAllocBudget: the router's side of a pooled 200 exchange
// allocates 6 objects — the cancel hook's 5 on a fresh request context
// (context.AfterFunc's record and its stop function, the context's child
// map and its entry, its done channel) and the body — with the head read
// in place and the request line rendered into the connection's writer.
// The edge is a loop that reads each request head and writes one fixed
// reply, allocating nothing; the fresh context's own 2 objects are the
// caller's, and are measured apart.
func TestHopExchangeAllocBudget(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	reply := []byte("HTTP/1.1 200 OK\r\nContent-Type: video/iso.segment\r\nContent-Length: 5\r\n\r\nhello")
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		br := bufio.NewReader(conn)
		for {
			for line := []byte(nil); len(line) != 2; {
				if line, err = br.ReadSlice('\n'); err != nil {
					return
				}
			}
			if _, err := conn.Write(reply); err != nil {
				return
			}
		}
	}()
	hop := newHopTransport(tcpNetwork{}, ln.Addr().String(), 1)
	defer hop.drop(true)
	tg := hopTarget{key: serve.ChunkKey{Video: "wire", Quality: 3, Tile: 7, Index: 12}}
	buf := make([]byte, 16)
	exchange := func(ctx context.Context) {
		st, err := hop.get(ctx, tg)
		n := 0
		for err == nil {
			var m int
			m, err = st.body.Read(buf[n:])
			n += m
		}
		if err != io.EOF || n != 5 || hop.idleLen() != 1 {
			t.Fatalf("exchange read %d bytes, ended with %v, left %d idle connections; want 5, EOF, 1", n, err, hop.idleLen())
		}
	}
	exchange(context.Background()) // dial
	base := context.Background()
	fresh := testing.AllocsPerRun(100, func() {
		_, cancel := context.WithCancel(base)
		cancel()
	})
	got := testing.AllocsPerRun(100, func() {
		ctx, cancel := context.WithCancel(base)
		exchange(ctx)
		cancel()
	}) - fresh
	t.Logf("a pooled 200 exchange allocates %.0f objects past its fresh context's %.0f", got, fresh)
	if got > 6 {
		t.Fatalf("a pooled 200 exchange allocates %.0f objects, want at most 6", got)
	}
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
