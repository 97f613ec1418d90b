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
	"runtime"
	"strings"
	"testing"
	"time"

	"sperke/internal/dash"
	"sperke/internal/obs"
	"sperke/internal/serve"
)

// bigKey is wireVideo's largest chunk, 582 KB: far more than the kernel
// buffers between a front door and a viewer that stops reading can hold.
func bigKey() serve.ChunkKey {
	v := wireVideo()
	return serve.ChunkKey{Video: v.ID, Quality: v.Qualities() - 1}
}

func keyPath(key serve.ChunkKey) string {
	return dash.ChunkPath(key.Video, key.Quality, key.Tile, key.Index, key.Layer)
}

// smallSendBuffers hands net/http each accepted connection unwrapped, so
// its response still reaches *net.TCPConn's ReadFrom and splice, with the
// send buffer pinned to a few KiB: Linux sizes a loopback socket's to
// megabytes, which would hold a whole chunk for a viewer that reads none.
type smallSendBuffers struct{ net.Listener }

func (l smallSendBuffers) Accept() (net.Conn, error) {
	conn, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return conn, conn.(*net.TCPConn).SetWriteBuffer(4 << 10)
}

// serveFrontDoor runs srv on a loopback listener of small send buffers
// until the test ends, and returns its address.
func serveFrontDoor(t *testing.T, srv *http.Server) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(smallSendBuffers{ln})
	t.Cleanup(func() { srv.Close() })
	return ln.Addr().String()
}

// stalledViewer dials addr, shrinks its receive buffer to a few KiB
// before the request goes out, and sends GET path. It reads nothing: the
// front door's writes wait on it once the kernels hold what they can.
func stalledViewer(t *testing.T, addr, path string) *net.TCPConn {
	t.Helper()
	c, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	conn := c.(*net.TCPConn)
	if err := conn.SetReadBuffer(4 << 10); err != nil {
		t.Fatal(err)
	}
	if _, err := fmt.Fprintf(conn, "GET %s HTTP/1.1\r\nHost: %s\r\n\r\n", path, addr); err != nil {
		t.Fatal(err)
	}
	return conn
}

// rawGET sends GET path to addr on a connection of its own, asking the
// server to close it after the response, and returns the response and
// its body as far as it came. A byte after the response — past a declared
// length, say — fails the test.
func rawGET(tb testing.TB, addr, path string) (*http.Response, []byte) {
	tb.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		tb.Fatal(err)
	}
	defer conn.Close()
	if _, err := fmt.Fprintf(conn, "GET %s HTTP/1.1\r\nHost: %s\r\nConnection: close\r\n\r\n", path, addr); err != nil {
		tb.Fatal(err)
	}
	raw, err := io.ReadAll(conn)
	if err != nil {
		tb.Fatal(err)
	}
	r := bytes.NewReader(raw)
	br := bufio.NewReader(r)
	resp, err := http.ReadResponse(br, nil)
	if err != nil {
		tb.Fatalf("GET %s: %v", path, err)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil && err != io.ErrUnexpectedEOF {
		tb.Fatalf("GET %s: body: %v", path, err)
	}
	if after := br.Buffered() + r.Len(); after > 0 {
		tb.Fatalf("GET %s: %d bytes after a %d-byte body", path, after, len(body))
	}
	return resp, body
}

// TestFrontDoorWriteDeadline: a viewer that sends a GET and never reads
// holds the front door's handler no longer than the write deadline
// dash.NewHTTPServer sets, on the handover path (splice waits on the
// viewer's socket) and on the block path (a relay keeping the body for a
// replica writes it from its own buffer). The edge is charged nothing,
// the hop connection is closed, not pooled with a body half read, and
// every goroutine returns. Without the deadline the handler waits for as
// long as the viewer does.
func TestFrontDoorWriteDeadline(t *testing.T) {
	const timeout = 300 * time.Millisecond
	key := bigKey()
	for _, path := range []string{"handover", "block"} {
		t.Run(path, func(t *testing.T) {
			before := runtime.NumGoroutine()
			reg := obs.NewRegistry()
			opts := []Option{WithNodes(3), WithWire(true), WithCatalog(wireCatalog(t, wireVideo())),
				WithObs(reg), WithHealth(HealthConfig{FailThreshold: 1})}
			if path == "block" {
				// A co-owner to warm and a body no edge can cache: the relay
				// keeps the copy and forwards it from there.
				opts = append(opts, WithReplication(2), WithNodeBudget(1<<10))
			}
			c, err := New(catalogOrigin(t), opts...)
			if err != nil {
				t.Fatal(err)
			}
			returned := make(chan time.Time, 1)
			srv := dash.NewHTTPServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				c.FrontDoor().ServeHTTP(w, r)
				returned <- time.Now()
			}))
			if srv.WriteTimeout != dash.DefaultTimeout {
				t.Fatalf("dash.NewHTTPServer's write deadline is %v, want dash.DefaultTimeout", srv.WriteTimeout)
			}
			srv.WriteTimeout = timeout
			addr := serveFrontDoor(t, srv)

			start := time.Now()
			viewer := stalledViewer(t, addr, keyPath(key))
			select {
			case at := <-returned:
				if took := at.Sub(start); took < timeout {
					t.Fatalf("the handler returned after %v, before its %v write deadline could end it", took, timeout)
				}
			case <-time.After(timeout + 5*time.Second):
				t.Fatalf("the handler is still writing to a viewer that reads nothing, %v past its %v write deadline", 5*time.Second, timeout)
			}
			if downs := reg.Counter("cluster.health.down_transitions").Value(); downs != 0 {
				t.Errorf("a viewer that stopped reading was charged to the edge: %d down transitions", downs)
			}
			if canceled := reg.Counter("dash.server.canceled").Value(); canceled != 1 {
				t.Errorf("dash.server.canceled = %d, want 1", canceled)
			}
			if idle := c.Node(Rank(key, c.NodeNames())[0]).hop.idleLen(); idle != 0 {
				t.Errorf("the hop pooled %d connections after a body it did not finish, want 0", idle)
			}
			viewer.Close()
			srv.Close()
			c.Close()
			waitFor(t, "goroutines back to their baseline", func() bool { return runtime.NumGoroutine() <= before })
		})
	}
}

// TestHandoverMovesTheBody: through a front door on a real socket, a body
// the router keeps no copy of reaches the viewer byte for byte — what the
// hop's reader held of it and what splice moved — with nothing after it;
// dash.server.bytes_tx counts it once for the front door beside the
// edge's own count; and the hop connection goes back to the pool. Chunks
// of 18 and 582 KB.
func TestHandoverMovesTheBody(t *testing.T) {
	v := wireVideo()
	for _, key := range []serve.ChunkKey{{Video: v.ID}, bigKey()} {
		want, err := dash.BuildChunkBody(v, key.Quality, key.Tile, key.Index, key.Layer)
		if err != nil {
			t.Fatal(err)
		}
		reg := obs.NewRegistry()
		c := newCarrierCluster(t, "tcp", catalogOrigin(t), WithNodes(3), WithObs(reg))
		addr := serveFrontDoor(t, dash.NewHTTPServer(c.FrontDoor()))
		resp, got := rawGET(t, addr, keyPath(key))
		if resp.StatusCode != http.StatusOK || !bytes.Equal(got, want) {
			t.Fatalf("%v: %d and %d bytes, want 200 and the %d-byte chunk", key, resp.StatusCode, len(got), len(want))
		}
		// The edge counts its response when its handler returns, which
		// the viewer's last byte need not wait for.
		waitFor(t, "dash.server.bytes_tx to count the body once at the edge and once at the front door", func() bool {
			return reg.Counter("dash.server.bytes_tx").Value() == 2*int64(len(want))
		})
		if idle := c.Node(Rank(key, c.NodeNames())[0]).hop.idleLen(); idle != 1 {
			t.Errorf("%v: the hop holds %d idle connections after an exact body, want 1", key, idle)
		}
	}
}

// TestHandoverEdgeFaultIsTheEdges is the conn-fault table: a front-door
// GET on a real socket, whose body the owning edge's script breaks at its
// middle, or whose hop drips it. An edge that ends the body short — its
// connection cut there, or closed by a kill while it stalled there —
// costs the relay the typed transient length mismatch and the edge one
// failure on its breaker; one that resets there costs the hop's typed
// transient error, which its socket shows. A stall that ends, or a hop
// that reads a few KiB at a time through the block loop, moves the body
// whole and costs nothing. A stall past the caller's 200 ms deadline
// returns within 100 ms of it, as the caller's cancellation, charged to
// nobody. The viewer gets no byte past the declared length, and only a
// hop connection that carried the whole body is pooled.
func TestHandoverEdgeFaultIsTheEdges(t *testing.T) {
	key := bigKey()
	want, err := dash.BuildChunkBody(wireVideo(), key.Quality, key.Tile, key.Index, key.Layer)
	if err != nil {
		t.Fatal(err)
	}
	half := len(want) / 2
	for _, tc := range []struct {
		name     string
		fault    *connFault
		kill     bool          // kill the edge once its stall begins
		drip     int           // the hop reads at most this many bytes at a time
		deadline time.Duration // the caller's, when it has one
		kind     dash.ErrorKind
		mismatch bool
		whole    bool // served whole, and nothing fails
	}{
		{name: "truncated", fault: &connFault{verb: cutAt, at: half}, kind: dash.KindTransient, mismatch: true},
		{name: "killed", fault: &connFault{verb: stallAt, at: half}, kill: true, kind: dash.KindTransient, mismatch: true},
		{name: "reset", fault: &connFault{verb: resetAt, at: half}, kind: dash.KindTransient},
		{name: "stalled", fault: &connFault{verb: stallAt, at: half, stall: 50 * time.Millisecond}, whole: true},
		{name: "dripped", drip: 4 << 10, whole: true},
		{name: "past the deadline", fault: &connFault{verb: stallAt, at: half}, deadline: 200 * time.Millisecond, kind: dash.KindCanceled},
	} {
		t.Run(tc.name, func(t *testing.T) {
			reg := obs.NewRegistry()
			f := &faultNet{scripted: true, drip: tc.drip}
			c := newCarrierCluster(t, "tcp", catalogOrigin(t), WithNodes(3), WithObs(reg), WithHealth(HealthConfig{FailThreshold: 1}), withFaults(f))
			edge := c.Node(Rank(key, c.NodeNames())[0])
			script := f.at(edge.Addr())
			if tc.fault != nil {
				script.then(*tc.fault)
			}
			if tc.kill {
				go func() {
					<-script.stalled
					edge.kill()
				}()
			}
			type result struct {
				took time.Duration
				err  error
			}
			results := make(chan result, 1)
			front := serveFrontDoor(t, &http.Server{Handler: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				ctx, start := r.Context(), time.Now()
				if tc.deadline > 0 {
					var cancel context.CancelFunc
					ctx, cancel = context.WithTimeout(ctx, tc.deadline)
					defer cancel()
				}
				_, _, err := c.walk(ctx, w, key, nil)
				results <- result{time.Since(start), err}
			})})

			resp, got := rawGET(t, front, keyPath(key))
			res := <-results
			downs, idle := reg.Counter("cluster.health.down_transitions").Value(), edge.hop.idleLen()
			if tc.whole {
				if res.err != nil || !bytes.Equal(got, want) || downs != 0 || idle != 1 {
					t.Fatalf("relay %v, %d of %d bytes at the viewer, %d down transitions, %d idle connections; want the body whole, nothing charged and the connection pooled",
						res.err, len(got), len(want), downs, idle)
				}
				return
			}
			var de *dash.Error
			if !errors.As(res.err, &de) || de.Kind != tc.kind || tc.mismatch != strings.Contains(res.err.Error(), "length mismatch") {
				t.Fatalf("relay returned %v, want a %v *dash.Error, a length mismatch: %v", res.err, tc.kind, tc.mismatch)
			}
			if resp.ContentLength != int64(len(want)) || len(got) >= len(want) || !bytes.HasPrefix(want, got) {
				t.Fatalf("the viewer got %d bytes under a declared %d, want fewer, and the chunk's", len(got), resp.ContentLength)
			}
			if charged := tc.kind == dash.KindTransient; (downs == 1) != charged || downs > 1 {
				t.Errorf("down transitions = %d, want the edge charged: %v", downs, charged)
			}
			if idle != 0 {
				t.Errorf("the hop pooled %d connections after a short body, want 0", idle)
			}
			if tc.deadline > 0 && (res.took < tc.deadline || res.took >= tc.deadline+100*time.Millisecond || !errors.Is(res.err, context.DeadlineExceeded)) {
				t.Errorf("the walk returned %v after %v, want context.DeadlineExceeded within 100ms of its %v deadline", res.err, res.took, tc.deadline)
			}
		})
	}
}
