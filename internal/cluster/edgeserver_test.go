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
	"os"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"sperke/internal/dash"
	"sperke/internal/serve"
)

// newEdge is a one-edge cluster on a real listener in front of origin,
// retired when the test ends.
func newEdge(tb testing.TB, origin dash.ChunkSource) (*Cluster, *Node) {
	tb.Helper()
	c, err := New(origin, WithNodes(1), WithWire(true), WithCatalog(wireCatalog(tb, wireVideo())))
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(c.Close)
	return c, c.Nodes()[0]
}

// catalogOrigin synthesizes wireVideo's real chunk bodies, the ones
// dash.BuildChunkBody builds.
func catalogOrigin(tb testing.TB) dash.ChunkSource {
	return serve.NewCatalogStore(wireCatalog(tb, wireVideo()), serve.StoreConfig{})
}

// edgeConnGoroutines counts the goroutines serving an edge connection.
func edgeConnGoroutines() int {
	buf := make([]byte, 1<<20)
	return strings.Count(string(buf[:runtime.Stack(buf, true)]), "(*edgeConn).serve(")
}

// syscallWrites reads the process's write syscall count.
func syscallWrites() (int64, error) {
	b, err := os.ReadFile("/proc/self/io")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if v, ok := strings.CutPrefix(line, "syscw: "); ok {
			return strconv.ParseInt(v, 10, 64)
		}
	}
	return 0, errors.New("/proc/self/io has no syscw line")
}

// TestEdgeDirectGETIsOneWrite: a GET straight to a wire edge is answered
// in one write syscall — head and body in one writev — and a hundred of
// them ride one connection.
func TestEdgeDirectGETIsOneWrite(t *testing.T) {
	if _, err := syscallWrites(); err != nil {
		t.Skipf("no per-process syscall counts: %v", err)
	}
	_, edge := newEdge(t, catalogOrigin(t))
	edge.Kill()
	accepted := recoverCounting(t, edge, nil)
	want, err := dash.BuildChunkBody(wireVideo(), 1, 0, 0, false)
	if err != nil {
		t.Fatal(err)
	}
	conn, err := net.Dial("tcp", edge.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	br := bufio.NewReader(conn)
	request := []byte("GET /v/wire/c/1/0/0 HTTP/1.1\r\nHost: edge\r\n\r\n")
	body := make([]byte, len(want))
	get := func() {
		if _, err := conn.Write(request); err != nil {
			t.Fatal(err)
		}
		resp, err := http.ReadResponse(br, nil)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := io.ReadFull(resp.Body, body); err != nil || resp.ContentLength != int64(len(want)) || !bytes.Equal(body, want) {
			t.Fatalf("GET: Content-Length %d, err %v; want the %d-byte chunk", resp.ContentLength, err, len(want))
		}
	}
	get() // fill the store
	const n = 100
	w0, err := syscallWrites()
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		get()
	}
	w1, err := syscallWrites()
	if err != nil {
		t.Fatal(err)
	}
	// Each exchange is the test's request write and the edge's response;
	// the runtime adds a stray few of its own (TestFetchWritesOverFloor).
	if got := w1 - w0 - n; got < n || got >= n+n/4 {
		t.Fatalf("the edge made %d writes for %d GETs, want one each", got, n)
	}
	if got := accepted.Load(); got != 1 {
		t.Fatalf("%d GETs took %d connections, want 1", n+1, got)
	}
}

// gateOrigin answers each fetch once its gate is open, or fails it when
// the fetch's context ends first, and counts both.
type gateOrigin struct {
	entered  chan struct{} // one send per fetch
	release  chan struct{}
	fetched  atomic.Int64
	canceled atomic.Int64
}

func newGateOrigin() *gateOrigin {
	return &gateOrigin{entered: make(chan struct{}, 8), release: make(chan struct{})}
}

func (o *gateOrigin) Chunk(ctx context.Context, videoID string, quality, tile, index int, layer bool) ([]byte, error) {
	o.entered <- struct{}{}
	select {
	case <-o.release:
		o.fetched.Add(1)
		return originBody(serve.ChunkKey{Video: videoID, Quality: quality, Tile: tile, Index: index, Layer: layer}), nil
	case <-ctx.Done():
		o.canceled.Add(1)
		return nil, context.Cause(ctx)
	}
}

// TestEdgeHangupMidMissFinishesTheMiss: the edge does not watch the
// router's end while a handler runs. A router that hangs up during a
// miss leaves it running; once the origin answers, the body is cached on
// one origin fetch, and the next GET is a hit on a fresh connection.
func TestEdgeHangupMidMissFinishesTheMiss(t *testing.T) {
	origin := newGateOrigin()
	_, edge := newEdge(t, origin)
	edge.Kill()
	accepted := recoverCounting(t, edge, nil)
	key := wireKeys(wireVideo())[0]

	ctx, cancel := context.WithCancel(context.Background())
	opened := make(chan error, 1)
	go func() {
		_, _, err := edge.open(ctx, key)
		opened <- err
	}()
	<-origin.entered
	cancel()
	if err := <-opened; !errors.Is(err, context.Canceled) {
		t.Fatalf("open after the router hung up: err %v, want context.Canceled", err)
	}
	close(origin.release)
	waitFor(t, "the miss to land in the edge's store", func() bool { return edge.Store().Contains(key) })

	st, _, err := edge.open(context.Background(), key)
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(st.body)
	st.body.Close()
	if err != nil || !bytes.Equal(body, originBody(key)) {
		t.Fatalf("GET after the hang-up: %q, %v", body, err)
	}
	if f, c := origin.fetched.Load(), origin.canceled.Load(); f != 1 || c != 0 {
		t.Fatalf("origin fetched %d and was canceled %d times, want 1 and 0", f, c)
	}
	if m, r := edge.Misses(), edge.Requests(); m != 1 || r != 2 {
		t.Fatalf("edge missed %d of %d requests, want 1 of 2: the second GET was not a hit", m, r)
	}
	if got := accepted.Load(); got != 2 {
		t.Fatalf("the edge accepted %d connections, want 2: the hung-up one, then a fresh one", got)
	}
}

// TestEdgeKillEndsTheHandlersContext: Kill while a miss waits on the
// origin ends the handler's context — the store cancels the flight
// nobody is left to want, and the origin sees it — closes the router's
// connection, and every goroutine the cluster started returns.
func TestEdgeKillEndsTheHandlersContext(t *testing.T) {
	before := runtime.NumGoroutine()
	origin := newGateOrigin()
	c, err := New(origin, WithNodes(1), WithWire(true), WithCatalog(wireCatalog(t, wireVideo())))
	if err != nil {
		t.Fatal(err)
	}
	edge := c.Nodes()[0]
	opened := make(chan error, 1)
	go func() {
		_, _, err := edge.open(context.Background(), wireKeys(wireVideo())[0])
		opened <- err
	}()
	<-origin.entered
	edge.Kill()
	if err := <-opened; err == nil {
		t.Fatal("open succeeded across a Kill")
	}
	waitFor(t, "the origin fetch to see its context end", func() bool { return origin.canceled.Load() == 1 })
	edge.retire()
	c.Close()
	waitFor(t, "goroutines back to their baseline", func() bool { return runtime.NumGoroutine() <= before })
}

// TestEdgeProtocol: the edge's connection loop speaks HTTP/1.1 as a
// client of it expects. Every response declares its length; a HEAD gets
// the size model's; errors keep the connection; HTTP/1.0, Connection:
// close and a malformed request end it; a request body is drained; and
// pipelined requests are answered in order. A kept connection then
// serves one more GET.
func TestEdgeProtocol(t *testing.T) {
	v := wireVideo()
	_, edge := newEdge(t, catalogOrigin(t))
	chunk := func(q int) string {
		b, err := dash.BuildChunkBody(v, q, 0, 0, false)
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}
	get := func(q int) string { return "GET /v/wire/c/" + strconv.Itoa(q) + "/0/0 HTTP/1.1\r\nHost: edge\r\n\r\n" }
	type reply struct {
		method string
		status int
		body   string
	}
	for _, tc := range []struct {
		name    string
		send    string
		replies []reply
		closes  bool
	}{
		{"HEAD", "HEAD /v/wire/c/1/0/0 HTTP/1.1\r\nHost: edge\r\n\r\n", []reply{{"HEAD", 200, chunk(1)}}, false},
		{"404", "GET /nowhere HTTP/1.1\r\nHost: edge\r\n\r\n", []reply{{"GET", 404, "404 page not found\n"}}, false},
		{"405", "DELETE /v/wire/c/1/0/0 HTTP/1.1\r\nHost: edge\r\n\r\n", []reply{{"DELETE", 405, "Method Not Allowed\n"}}, false},
		{"HTTP/1.0", "GET /v/wire/c/1/0/0 HTTP/1.0\r\n\r\n", []reply{{"GET", 200, chunk(1)}}, true},
		{"Connection: close", "GET /v/wire/c/1/0/0 HTTP/1.1\r\nHost: edge\r\nConnection: close\r\n\r\n", []reply{{"GET", 200, chunk(1)}}, true},
		{"body drained", "POST /v HTTP/1.1\r\nHost: edge\r\nContent-Length: 5\r\n\r\nhello", []reply{{"POST", 405, "Method Not Allowed\n"}}, false},
		{"pipelined", get(1) + get(2), []reply{{"GET", 200, chunk(1)}, {"GET", 200, chunk(2)}}, false},
		{"malformed", "GARBAGE\r\n\r\n", []reply{{"GET", 400, "400 Bad Request"}}, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			conn, err := net.Dial("tcp", edge.Addr())
			if err != nil {
				t.Fatal(err)
			}
			defer conn.Close()
			conn.SetDeadline(time.Now().Add(5 * time.Second))
			br := bufio.NewReader(conn)
			read := func(r reply) *http.Response {
				t.Helper()
				resp, err := http.ReadResponse(br, &http.Request{Method: r.method})
				if err != nil {
					t.Fatal(err)
				}
				body, err := io.ReadAll(resp.Body)
				if err != nil {
					t.Fatal(err)
				}
				if r.method == http.MethodHead {
					if resp.StatusCode != r.status || len(body) != 0 || resp.ContentLength != int64(len(r.body)) {
						t.Fatalf("HEAD: status %d, %d body bytes under Content-Length %d; want %d, none under %d", resp.StatusCode, len(body), resp.ContentLength, r.status, len(r.body))
					}
				} else if resp.StatusCode != r.status || string(body) != r.body || resp.ContentLength != int64(len(body)) {
					t.Fatalf("%s: status %d, %d bytes under Content-Length %d; want %d and the %d bytes expected", r.method, resp.StatusCode, len(body), resp.ContentLength, r.status, len(r.body))
				}
				return resp
			}
			if _, err := io.WriteString(conn, tc.send); err != nil {
				t.Fatal(err)
			}
			var last *http.Response
			for _, r := range tc.replies {
				last = read(r)
			}
			if tc.closes {
				if !last.Close {
					t.Fatal("the last response did not say Connection: close")
				}
				if _, err := br.ReadByte(); err != io.EOF {
					t.Fatalf("read after the last response: %v, want EOF", err)
				}
				return
			}
			if _, err := io.WriteString(conn, get(2)); err != nil {
				t.Fatal(err)
			}
			read(reply{"GET", 200, chunk(2)})
		})
	}
}

// TestEdgePanicClosesOnlyItsConnection: a handler that panics takes down
// the connection it was answering, not the process or the server.
func TestEdgePanicClosesOnlyItsConnection(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	s := serveEdge(ln, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/panic" {
			panic("handler bug")
		}
		io.WriteString(w, "ok")
	}))
	defer s.close()
	exchange := func(path string) (string, error) {
		conn, err := net.Dial("tcp", ln.Addr().String())
		if err != nil {
			return "", err
		}
		defer conn.Close()
		conn.SetDeadline(time.Now().Add(5 * time.Second))
		if _, err := io.WriteString(conn, "GET "+path+" HTTP/1.1\r\nHost: edge\r\n\r\n"); err != nil {
			return "", err
		}
		resp, err := http.ReadResponse(bufio.NewReader(conn), nil)
		if err != nil {
			return "", err
		}
		body, err := io.ReadAll(resp.Body)
		return string(body), err
	}
	if _, err := exchange("/panic"); !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("a panicking handler's connection: err %v, want it closed with no response", err)
	}
	if body, err := exchange("/ok"); err != nil || body != "ok" {
		t.Fatalf("the next connection after a panic: %q, %v", body, err)
	}
}

// deadlineLog records, across the connections of a deadlineListener, how
// many responses an edge began and which began without a write deadline
// in (now, now + dash.DefaultTimeout] set since the request was read.
type deadlineLog struct {
	mu        sync.Mutex
	responses int
	faults    []string
}

func (l *deadlineLog) fault(format string, args ...any) {
	l.faults = append(l.faults, fmt.Sprintf(format, args...))
}

type deadlineListener struct {
	net.Listener
	log *deadlineLog
}

func (l deadlineListener) Accept() (net.Conn, error) {
	conn, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return &deadlineConn{Conn: conn, log: l.log}, nil
}

// deadlineConn is one connection under a deadlineLog. A read ends the
// response before it, so the next write begins one.
type deadlineConn struct {
	net.Conn
	log       *deadlineLog
	responded bool // a write came since the last read
	armed     bool // a write deadline was set since the last read
}

func (c *deadlineConn) Read(p []byte) (int, error) {
	c.log.mu.Lock()
	c.responded, c.armed = false, false
	c.log.mu.Unlock()
	return c.Conn.Read(p)
}

func (c *deadlineConn) SetWriteDeadline(d time.Time) error {
	now := time.Now()
	c.log.mu.Lock()
	if !d.After(now) || d.After(now.Add(dash.DefaultTimeout)) {
		c.log.fault("write deadline %v from now, want in (0, %v]", d.Sub(now), dash.DefaultTimeout)
	}
	c.armed = true
	c.log.mu.Unlock()
	return c.Conn.SetWriteDeadline(d)
}

func (c *deadlineConn) Write(p []byte) (int, error) {
	c.log.mu.Lock()
	if !c.responded {
		c.responded = true
		c.log.responses++
		if !c.armed {
			c.log.fault("response %d began with no write deadline: %.20q", c.log.responses, p)
		}
	}
	c.log.mu.Unlock()
	return c.Conn.Write(p)
}

// TestEdgeSetsWriteDeadline: every response an edge sends — under a
// declared length, held and sent at the handler's return, past the hold
// limit, and a refusal of a malformed request — begins after a write
// deadline at most dash.DefaultTimeout away, so a router that stops
// reading cannot pin the connection and its goroutine for good.
func TestEdgeSetsWriteDeadline(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	log := &deadlineLog{}
	s := serveEdge(deadlineListener{ln, log}, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch r.URL.Path {
		case "/declared":
			w.Header().Set("Content-Length", "5")
			io.WriteString(w, "hello")
		case "/held":
			io.WriteString(w, "hello")
		case "/long":
			w.Write(make([]byte, edgeBodyLimit+1))
		}
	}))
	defer s.close()
	exchange := func(requests ...string) {
		t.Helper()
		conn, err := net.Dial("tcp", ln.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		conn.SetDeadline(time.Now().Add(5 * time.Second))
		br := bufio.NewReader(conn)
		for _, req := range requests {
			if _, err := io.WriteString(conn, req); err != nil {
				t.Fatal(err)
			}
			resp, err := http.ReadResponse(br, nil)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := io.Copy(io.Discard, resp.Body); err != nil {
				t.Fatal(err)
			}
		}
	}
	get := func(path string) string { return "GET " + path + " HTTP/1.1\r\nHost: edge\r\n\r\n" }
	exchange(get("/declared"), get("/held"), get("/declared"), get("/long"))
	exchange("GARBAGE\r\n\r\n")
	log.mu.Lock()
	defer log.mu.Unlock()
	if log.responses != 5 {
		t.Fatalf("the edge began %d responses, want 5", log.responses)
	}
	for _, f := range log.faults {
		t.Error(f)
	}
}

// edgeAnswers reads stream as the edge's connection loop does and
// returns the method of each request it answers, in order — a head it
// refuses is answered too, as a GET's would be — and the index of the
// request that starts at offset tail, or -1 when none does.
func edgeAnswers(stream []byte, tail int) (methods []string, tailAt int) {
	tailAt = -1
	r := bytes.NewReader(stream)
	br := bufio.NewReaderSize(r, hopBufLen)
	for {
		at := len(stream) - r.Len() - br.Buffered()
		req, err := http.ReadRequest(br)
		if err != nil {
			if !errors.Is(err, io.EOF) && !errors.Is(err, io.ErrUnexpectedEOF) {
				methods = append(methods, http.MethodGet)
			}
			return methods, tailAt
		}
		if at == tail {
			tailAt = len(methods)
		}
		methods = append(methods, req.Method)
		if req.Close || !req.ProtoAtLeast(1, 1) || !drained(req.Body) {
			return methods, tailAt
		}
	}
}

// FuzzEdgeServe sends arbitrary bytes, then a well-formed chunk GET, as
// one connection's request stream to a wire edge. Every request the edge
// reads gets a response that parses and carries exactly its
// Content-Length bytes (or ends with the connection, having said
// Connection: close); the chunk GET, when the stream reaches it, gets
// dash.BuildChunkBody's bytes; nothing else follows; and the
// connection's goroutine exits once the connection closes.
func FuzzEdgeServe(f *testing.F) {
	for _, seed := range []string{
		"",
		"HEAD /v/wire/c/1/0/0 HTTP/1.1\r\nHost: edge\r\n\r\n",
		"GET /nowhere HTTP/1.1\r\nHost: edge\r\n\r\n",
		"DELETE /v/wire/c/1/0/0 HTTP/1.1\r\nHost: edge\r\n\r\n",
		"GET /v/wire/c/2/0/0 HTTP/1.0\r\n\r\n",
		"GET /v/wire/c/2/0/0 HTTP/1.1\r\nHost: edge\r\nConnection: close\r\n\r\n",
		"POST /v HTTP/1.1\r\nHost: edge\r\nContent-Length: 5\r\n\r\nhello",
		"POST /v HTTP/1.1\r\nHost: edge\r\nTransfer-Encoding: chunked\r\n\r\n5\r\nhello\r\n0\r\n\r\n",
		"GET /v/wire/c/2/0/0 HTTP/1.1\r\nHost: edge\r\n\r\nGET /v/wire/manifest.mpd HTTP/1.1\r\nHost: edge\r\n\r\n",
		"GARBAGE\r\n\r\n",
		"0  HTTP/0.0\n", // an empty URI: a *url.Error, which is no read failure
		"GET /v/wire/c/1/0/0 HTTP/1.1\r\nHost: edge\r\nX: ",
	} {
		f.Add([]byte(seed))
	}
	_, edge := newEdge(f, catalogOrigin(f))
	const tail = "GET /v/wire/c/1/0/0 HTTP/1.1\r\nHost: edge\r\n\r\n"
	want, err := dash.BuildChunkBody(wireVideo(), 1, 0, 0, false)
	if err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > edgeBodyLimit {
			t.Skip("a request head this long is refused by size, which this target does not model")
		}
		stream := append(data[:len(data):len(data)], tail...)
		methods, tailAt := edgeAnswers(stream, len(data))
		conn, err := net.Dial("tcp", edge.Addr())
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		conn.SetDeadline(time.Now().Add(10 * time.Second))
		wrote := make(chan error, 1)
		go func() {
			_, err := conn.Write(stream)
			if err == nil {
				err = conn.(*net.TCPConn).CloseWrite()
			}
			wrote <- err
		}()
		br := bufio.NewReader(conn)
		for i, method := range methods {
			resp, err := http.ReadResponse(br, &http.Request{Method: method})
			if err != nil {
				t.Fatalf("response %d of %d: %v", i+1, len(methods), err)
			}
			body, err := io.ReadAll(resp.Body)
			if err != nil {
				t.Fatalf("response %d of %d (%d): body: %v", i+1, len(methods), resp.StatusCode, err)
			}
			if resp.ContentLength < 0 && !resp.Close {
				t.Fatalf("response %d of %d (%d) has no Content-Length and keeps the connection", i+1, len(methods), resp.StatusCode)
			}
			if method != http.MethodHead && resp.ContentLength >= 0 && int64(len(body)) != resp.ContentLength {
				t.Fatalf("response %d of %d (%d): %d bytes under Content-Length %d", i+1, len(methods), resp.StatusCode, len(body), resp.ContentLength)
			}
			if i == tailAt && (resp.StatusCode != http.StatusOK || !bytes.Equal(body, want)) {
				t.Fatalf("the chunk GET got %d and %d bytes, want 200 and the %d-byte chunk", resp.StatusCode, len(body), len(want))
			}
		}
		// An edge that stops reading before the stream's end — after a
		// request that ends the connection — closes with bytes unread, and
		// the kernel says so with a reset: the connection ends either way,
		// and the write may fail.
		if b, err := br.ReadByte(); err != io.EOF && !errors.Is(err, syscall.ECONNRESET) {
			t.Fatalf("after %d responses: read %q, %v; want the connection closed", len(methods), b, err)
		}
		<-wrote
		conn.Close()
		waitFor(t, "the edge's connection goroutine to exit", func() bool { return edgeConnGoroutines() == 0 })
	})
}
