package cluster

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"math"
	"net"
	"net/http"
	"runtime/debug"
	"strconv"
	"sync"
	"time"

	"sperke/internal/dash"
)

// edgeBodyLimit is the most of a body without a declared length the
// edge holds back to send under its Content-Length — on the edge these
// are http.Error's messages, the MPD and the /v listing — and the most
// of a request body it reads past the handler to keep the connection.
const edgeBodyLimit = 64 << 10

// edgeServer is a wire edge's HTTP process on its listener: the server
// half of hopTransport. Each connection is served on one
// goroutine — http.ReadRequest in, the handler on that goroutine, the
// response out — with net/http's own codec on a connection the edge
// holds: no second goroutine, no hand-written request parsing. A
// response under a declared Content-Length leaves with its head in one
// writev on the handler's first Write, where http.Server flushes its
// 4 KiB buffer and then writes the rest, and starts a background read
// per request to notice a peer that hangs up.
//
// The edge therefore does not watch the router's end while a handler
// runs: a router that hangs up during a miss does not cancel it. The
// miss finishes — one in-process synthesis, and the body is cached —
// and the write that fails, or the request that never comes, closes the
// connection.
type edgeServer struct {
	ln      net.Listener
	handler http.Handler
	ctx     context.Context // every request's; close cancels it
	cancel  context.CancelFunc

	mu    sync.Mutex
	conns map[*edgeConn]struct{} // nil once closed
}

// serveEdge starts serving h on ln.
func serveEdge(ln net.Listener, h http.Handler) *edgeServer {
	// The root of one edge incarnation's requests: they belong to no
	// caller in this process — the router is on the far side of a
	// socket — and end when the incarnation does
	// (TestEdgeKillEndsTheHandlersContext).
	ctx, cancel := context.WithCancel(context.Background())
	s := &edgeServer{ln: ln, handler: h, ctx: ctx, cancel: cancel, conns: make(map[*edgeConn]struct{})}
	go s.accept()
	return s
}

// accept runs until the listener closes. A failed Accept on an open
// listener — out of descriptors, a connection aborted before it was
// taken — backs off from 5 ms to 1 s, as http.Server does, rather than
// spinning.
func (s *edgeServer) accept() {
	var backoff time.Duration
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			if errors.Is(err, net.ErrClosed) {
				return
			}
			backoff = min(max(2*backoff, 5*time.Millisecond), time.Second)
			if wallSleep(s.ctx, backoff) != nil {
				return
			}
			continue
		}
		backoff = 0
		c := &edgeConn{s: s, conn: conn, header: make(http.Header, 4)}
		c.lr.R = conn
		c.br = bufio.NewReaderSize(&c.lr, hopBufLen)
		s.mu.Lock()
		open := s.conns != nil
		if open {
			s.conns[c] = struct{}{}
		}
		s.mu.Unlock()
		if !open {
			conn.Close()
			continue
		}
		go c.serve()
	}
}

// close ends the incarnation the way a crash does — nothing drains: the
// listener and every connection, idle or mid-response, are closed, and
// then the requests' context is canceled, so a handler it wakes finds its
// connection gone and answers nobody. Each connection's goroutine exits
// once its handler returns and its next read or write fails.
func (s *edgeServer) close() {
	_ = s.ln.Close()
	s.mu.Lock()
	conns := s.conns
	s.conns = nil
	s.mu.Unlock()
	for c := range conns {
		_ = c.conn.Close()
	}
	s.cancel()
}

// edgeConn is one connection, and the http.ResponseWriter of the request
// it is answering: the header map, the head and the held body are the
// connection's for life, so a response allocates no writer of its own.
type edgeConn struct {
	s    *edgeServer
	conn net.Conn
	lr   io.LimitedReader // bounds a request head at http.DefaultMaxHeaderBytes
	br   *bufio.Reader

	header http.Header
	head   bytes.Buffer
	held   []byte // a body with no declared length, until the handler returns
	vec    [3][]byte
	out    net.Buffers

	// The response in progress.
	headOnly bool  // a HEAD: the head goes out, body bytes do not
	status   int   // 0 until WriteHeader
	declared int64 // the body's Content-Length; -1 while there is none
	written  int64 // body bytes the handler wrote
	sent     bool  // the head is out
	closing  bool  // the response says Connection: close
	err      error // the first failed write; the connection ends with it
}

// serve answers requests until one cannot be followed by another. A
// handler that panics takes down its connection, not the process.
func (c *edgeConn) serve() {
	defer func() {
		if p := recover(); p != nil && p != http.ErrAbortHandler {
			slog.Error("cluster: edge handler panicked", "panic", p, "stack", string(debug.Stack()))
		}
		_ = c.conn.Close()
		c.s.mu.Lock()
		delete(c.s.conns, c)
		c.s.mu.Unlock()
	}()
	for c.next() {
	}
}

// next reads one request and answers it on this goroutine. It reports
// whether the connection can carry another: the response went out whole
// and as declared, it did not say Connection: close, and what the
// handler left of the request's body was drained.
func (c *edgeConn) next() bool {
	c.lr.N = http.DefaultMaxHeaderBytes
	_ = c.conn.SetReadDeadline(wallDeadline(dash.IdleTimeout))
	if _, err := c.br.Peek(1); err != nil {
		return false
	}
	_ = c.conn.SetReadDeadline(wallDeadline(dash.ReadHeaderTimeout))
	req, err := http.ReadRequest(c.br)
	if err != nil {
		c.reject(err)
		return false
	}
	c.lr.N = math.MaxInt64
	clear(c.header)
	c.headOnly = req.Method == http.MethodHead
	c.status, c.declared, c.written, c.sent = 0, -1, 0, false
	c.closing = req.Close || !req.ProtoAtLeast(1, 1)
	c.s.handler.ServeHTTP(c, req.WithContext(c.s.ctx))
	c.finish()
	return c.err == nil && !c.closing && (c.headOnly || c.written == c.declared) && drained(req.Body)
}

// reject answers a request head ReadRequest refused and ends the
// connection: one past the size limit gets 431, a malformed one 400. A
// read that failed — the peer left, or went quiet past the header limit
// — gets nothing.
func (c *edgeConn) reject(err error) {
	status := http.StatusBadRequest
	var read *net.OpError // a deadline that passed included
	switch {
	case c.lr.N <= 0:
		status = http.StatusRequestHeaderFieldsTooLarge
	case errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) || errors.As(err, &read):
		return
	}
	text := strconv.Itoa(status) + " " + http.StatusText(status)
	// The connection closes next whether this reaches the peer or not.
	_ = c.conn.SetWriteDeadline(wallDeadline(dash.DefaultTimeout))
	_, _ = fmt.Fprintf(c.conn, "HTTP/1.1 %s\r\nContent-Type: text/plain; charset=utf-8\r\nContent-Length: %d\r\nConnection: close\r\n\r\n%s", text, len(text), text)
}

// drained reads what the handler left of a request body, up to
// edgeBodyLimit, so the next request is read from where it starts. It
// reports whether the body ended within the limit.
func drained(body io.Reader) bool {
	if body == http.NoBody {
		return true
	}
	_, err := io.CopyN(io.Discard, body, edgeBodyLimit+1)
	return err == io.EOF
}

func (c *edgeConn) Header() http.Header { return c.header }

// WriteHeader fixes the status and takes the body's length from the
// Content-Length header, if the handler declared one; the head itself
// waits for the first body bytes or the handler's return.
func (c *edgeConn) WriteHeader(status int) {
	if c.status != 0 {
		return
	}
	c.status = status
	if v := c.header["Content-Length"]; len(v) == 1 {
		if n, err := strconv.ParseInt(v[0], 10, 64); err == nil && n >= 0 {
			c.declared = n
		}
	}
	// The head writes the length from declared, so a value that did not
	// parse goes nowhere.
	delete(c.header, "Content-Length")
}

// Write sends p. Under a declared length, the first Write carries the
// head and p in one writev and any later one goes straight to the
// connection; a byte past the declared length is refused with
// http.ErrContentLength. Without one, p is held to go out under its
// length when the handler returns — until the held body would pass
// edgeBodyLimit: then the head says Connection: close, and the body goes
// out as it comes and ends with the connection.
func (c *edgeConn) Write(p []byte) (int, error) {
	if c.status == 0 {
		c.WriteHeader(http.StatusOK)
	}
	if c.err != nil {
		return 0, c.err
	}
	var over error
	if c.declared >= 0 && int64(len(p)) > c.declared-c.written {
		p, over = p[:c.declared-c.written], http.ErrContentLength
	}
	switch {
	case c.sent || c.declared >= 0:
		c.send(p)
	case len(c.held)+len(p) <= edgeBodyLimit:
		c.held = append(c.held, p...)
	default:
		c.closing = true
		c.send(p)
	}
	if c.err != nil {
		return 0, c.err
	}
	c.written += int64(len(p))
	return len(p), over
}

// finish ends the response of a handler that returned. A head not yet
// out goes now: with the held body under its length, or alone.
func (c *edgeConn) finish() {
	if c.status == 0 {
		c.WriteHeader(http.StatusOK)
	}
	if !c.sent {
		if c.declared < 0 {
			c.declared = c.written
		}
		c.send(nil)
	}
}

// send writes p to the connection, behind the head and the held body
// when they are not out yet: one writev on a *net.TCPConn, one write per
// piece on any other net.Conn. A HEAD's body bytes are dropped. The
// response's writes share one deadline, dash.DefaultTimeout from its
// first — the bound the hop puts on the router's end of the exchange —
// so a router that stops reading frees the connection and its goroutine.
func (c *edgeConn) send(p []byte) {
	c.out = c.vec[:0]
	if !c.sent {
		c.sent = true
		_ = c.conn.SetWriteDeadline(wallDeadline(dash.DefaultTimeout))
		c.out = append(c.out, c.writeHead())
		if !c.headOnly && len(c.held) > 0 {
			c.out = append(c.out, c.held)
		}
	}
	if !c.headOnly && len(p) > 0 {
		c.out = append(c.out, p)
	}
	if len(c.out) == 0 {
		return
	}
	if _, err := c.out.WriteTo(c.conn); err != nil {
		c.err = err
	}
	c.vec = [3][]byte{}
	c.held = c.held[:0]
}

// writeHead renders the response head into the connection's buffer: the
// status line, the handler's headers as http.Header.Write puts them
// (sorted, a newline in a value turned into a space), the length and
// Connection: close when they apply, and the blank line.
func (c *edgeConn) writeHead() []byte {
	b := &c.head
	b.Reset()
	b.WriteString("HTTP/1.1 ")
	b.Write(strconv.AppendInt(b.AvailableBuffer(), int64(c.status), 10))
	b.WriteByte(' ')
	b.WriteString(http.StatusText(c.status))
	b.WriteString("\r\n")
	_ = c.header.Write(b)
	if c.declared >= 0 {
		b.WriteString("Content-Length: ")
		b.Write(strconv.AppendInt(b.AvailableBuffer(), c.declared, 10))
		b.WriteString("\r\n")
	}
	if c.closing {
		b.WriteString("Connection: close\r\n")
	}
	b.WriteString("\r\n")
	return b.Bytes()
}

// wallDeadline is d from now, for a connection's deadline — the edge's
// read limits, the hop's exchange — which is wall time by nature, as a
// socket's deadline is.
func wallDeadline(d time.Duration) time.Time { return time.Now().Add(d) }
