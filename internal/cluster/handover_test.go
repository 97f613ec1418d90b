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
	"sperke/internal/faults"
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
			for _, n := range c.Nodes() {
				n.retire()
			}
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

// restartEdge brings a killed real-listener edge back on its address
// with h as its handler.
func restartEdge(t *testing.T, edge *Node, h http.Handler) {
	t.Helper()
	ln, err := net.Listen("tcp", edge.Addr())
	if err != nil {
		t.Fatal(err)
	}
	edge.rt.Store(serveEdge(ln, h))
	edge.down.Store(false)
	edge.accepting.Store(true)
}

// stallingWriter sends the first half of the first Write, reports it on
// sent, and holds the handler until its request's context ends — an
// edge that dies mid-body when it is killed.
type stallingWriter struct {
	http.ResponseWriter
	ctx  context.Context
	sent chan<- struct{}
}

func (w *stallingWriter) Write(p []byte) (int, error) {
	n, err := w.ResponseWriter.Write(p[:len(p)/2])
	w.sent <- struct{}{}
	<-w.ctx.Done()
	return n, errors.Join(err, w.ctx.Err())
}

// TestHandoverEdgeFaultIsTheEdges: an edge that ends a handed-over body
// short — it declared the whole chunk and sent half, or it was killed
// after half — costs the relay the typed transient length mismatch and
// the edge one failure on its breaker; one killed with a reset instead
// costs the hop's typed transient error, which its socket shows. The
// viewer gets no byte past the declared length, and the hop connection
// is closed, not pooled.
func TestHandoverEdgeFaultIsTheEdges(t *testing.T) {
	key := bigKey()
	v := wireVideo()
	want, err := dash.BuildChunkBody(v, key.Quality, key.Tile, key.Index, key.Layer)
	if err != nil {
		t.Fatal(err)
	}
	for _, fault := range []string{"truncated", "killed", "reset"} {
		t.Run(fault, func(t *testing.T) {
			reg := obs.NewRegistry()
			c := newCarrierCluster(t, "tcp", catalogOrigin(t), WithNodes(3), WithObs(reg), WithHealth(HealthConfig{FailThreshold: 1}))
			edge := c.Node(Rank(key, c.NodeNames())[0])
			edge.Kill()
			sent := make(chan struct{}, 1)
			h := faults.NewInjector(1, faults.Rule{TruncateProb: 1}).Wrap(edge.server)
			if fault != "truncated" {
				h = http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
					edge.server.ServeHTTP(&stallingWriter{ResponseWriter: w, ctx: r.Context(), sent: sent}, r)
				})
				go func() {
					<-sent
					if fault == "reset" {
						s := edge.rt.Load()
						s.mu.Lock()
						for ec := range s.conns {
							ec.conn.(*net.TCPConn).SetLinger(0)
						}
						s.mu.Unlock()
					}
					edge.Kill()
				}()
			}
			restartEdge(t, edge, h)
			errs := make(chan error, 1)
			front := serveFrontDoor(t, &http.Server{Handler: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				_, _, err := c.walk(r.Context(), w, key, nil)
				errs <- err
			})})

			resp, got := rawGET(t, front, keyPath(key))
			err := <-errs
			var de *dash.Error
			if !errors.As(err, &de) || de.Kind != dash.KindTransient || (fault == "reset") == strings.Contains(err.Error(), "length mismatch") {
				t.Fatalf("relay returned %v, want a transient *dash.Error, a length mismatch unless the edge reset", err)
			}
			if resp.ContentLength != int64(len(want)) || len(got) >= len(want) || !bytes.HasPrefix(want, got) {
				t.Fatalf("the viewer got %d bytes under a declared %d, want fewer, and the chunk's", len(got), resp.ContentLength)
			}
			if downs := reg.Counter("cluster.health.down_transitions").Value(); downs != 1 {
				t.Errorf("down transitions = %d, want the edge's one failure", downs)
			}
			if idle := edge.hop.idleLen(); idle != 0 {
				t.Errorf("the hop pooled %d connections after a short body, want 0", idle)
			}
		})
	}
}
