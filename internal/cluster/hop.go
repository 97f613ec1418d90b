package cluster

import (
	"bufio"
	"context"
	"errors"
	"io"
	"net"
	"net/http"
	"os"
	"sync"
	"syscall"
	"time"
)

// hopBufLen sizes each pooled connection's read and write buffers: a
// request line and a response head fit, and a body larger than it is
// read straight into the relay's block.
const hopBufLen = 4 << 10

// hopExpired is the past deadline a canceled exchange's connection is
// given, so a read or write blocked on it returns at once.
var hopExpired = time.Unix(1, 0)

// hopTransport is the router's keep-alive pool to one real-listener
// edge, and the http.RoundTripper that edge's dash.Client sends
// through. An exchange runs on the caller's goroutine from the request's
// first byte to the body's last: req.Write and one Flush out,
// http.ReadResponse in — net/http's own codec on a connection the caller
// holds — so no goroutine is started or woken per exchange, where
// http.Transport keeps a reader and a writer goroutine per connection
// and crosses each of them twice.
//
// The exchange's one deadline, which the client puts on the request's
// context, is the connection's; a cancel sets a deadline already past,
// so a blocked read or write returns. The body hands its connection back
// only when it was read to EOF, the cancel had not fired and the edge
// did not say Connection: close; every other ending closes it. The pool
// is LIFO and holds at most the edge's admission bound, so every request
// the edge can have in flight finds its connection again.
//
// Nothing ages an idle connection. One the edge closed while it sat idle
// — its own idle limit, or a crash and restart — fails before the first
// response byte, and the GET is re-sent once on a fresh dial with the
// whole pool dropped, since the edge will have closed its neighbours
// too: a restarted edge costs one dial, not one dead connection per
// pooled entry, and no failure reaches the health layer.
type hopTransport struct {
	addr string

	mu      sync.Mutex
	idle    []*hopConn // the most recently returned last
	maxIdle int
	retired bool // retire ran: returning connections are closed
}

// hopConn is one pooled connection with the buffers it keeps for life.
type hopConn struct {
	conn net.Conn
	br   *bufio.Reader
	bw   *bufio.Writer
}

func newHopTransport(addr string, maxIdle int) *hopTransport {
	return &hopTransport{addr: addr, maxIdle: maxIdle}
}

// RoundTrip implements http.RoundTripper.
func (t *hopTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	ctx := req.Context()
	pc := t.take()
	reused := pc != nil
	if !reused {
		var err error
		if pc, err = t.dial(ctx); err != nil {
			return nil, err
		}
	}
	resp, stale, err := t.exchange(pc, req)
	if stale && reused && req.Method == http.MethodGet && req.Body == nil && ctx.Err() == nil {
		t.drop(false)
		if pc, err = t.dial(ctx); err != nil {
			return nil, err
		}
		resp, _, err = t.exchange(pc, req)
	}
	return resp, err
}

func (t *hopTransport) dial(ctx context.Context) (*hopConn, error) {
	var d net.Dialer
	conn, err := d.DialContext(ctx, "tcp", t.addr)
	if err != nil {
		return nil, err
	}
	return &hopConn{conn: conn, br: bufio.NewReaderSize(conn, hopBufLen), bw: bufio.NewWriterSize(conn, hopBufLen)}, nil
}

// exchange sends req on pc and reads the response head, handing pc to
// the response's body. On failure pc is closed, and stale reports that
// it failed before the first response byte the way a connection its
// peer closed does.
func (t *hopTransport) exchange(pc *hopConn, req *http.Request) (resp *http.Response, stale bool, err error) {
	ctx := req.Context()
	deadline, _ := ctx.Deadline() // zero clears the previous exchange's
	pc.conn.SetDeadline(deadline)
	stop := context.AfterFunc(ctx, func() { pc.conn.SetDeadline(hopExpired) })
	err = req.Write(pc.bw)
	if err == nil {
		err = pc.bw.Flush()
	}
	if err == nil {
		_, err = pc.br.Peek(1)
	}
	if err != nil {
		stale = errors.Is(err, io.EOF) || errors.Is(err, syscall.ECONNRESET) ||
			errors.Is(err, syscall.EPIPE) || errors.Is(err, net.ErrClosed)
	} else if resp, err = http.ReadResponse(pc.br, req); err == nil {
		resp.Body = &hopBody{body: resp.Body, pc: pc, t: t, ctx: ctx, stop: stop, keep: !resp.Close}
		return resp, false, nil
	}
	stop()
	pc.conn.Close()
	return nil, stale, hopErr(ctx, err)
}

// hopErr reads a failure the connection's deadline caused as the
// context's end that set it.
func hopErr(ctx context.Context, err error) error {
	if !errors.Is(err, os.ErrDeadlineExceeded) {
		return err
	}
	if cause := context.Cause(ctx); cause != nil {
		return cause
	}
	return context.DeadlineExceeded
}

// take pops the most recently returned idle connection, or nil.
func (t *hopTransport) take() *hopConn {
	t.mu.Lock()
	defer t.mu.Unlock()
	last := len(t.idle) - 1
	if last < 0 {
		return nil
	}
	pc := t.idle[last]
	t.idle[last] = nil
	t.idle = t.idle[:last]
	return pc
}

// put returns a connection whose exchange ended cleanly, closing it
// instead when the pool is full or retired.
func (t *hopTransport) put(pc *hopConn) {
	t.mu.Lock()
	pooled := !t.retired && len(t.idle) < t.maxIdle
	if pooled {
		t.idle = append(t.idle, pc)
	}
	t.mu.Unlock()
	if !pooled {
		pc.conn.Close()
	}
}

// drop closes every idle connection; retire also closes each one in use
// when its exchange ends, instead of pooling it.
func (t *hopTransport) drop(retire bool) {
	t.mu.Lock()
	idle := t.idle
	t.idle = nil
	t.retired = t.retired || retire
	t.mu.Unlock()
	for _, pc := range idle {
		pc.conn.Close()
	}
}

// hopBody is a response body holding its exchange's connection until
// the body ends: read to EOF, it goes back to the pool if it can carry
// another exchange; failed or closed early, it is closed. Like any
// response body it is read and closed by one goroutine.
type hopBody struct {
	body io.Reader // http.ReadResponse's, reading pc.br
	pc   *hopConn  // nil once released
	t    *hopTransport
	ctx  context.Context
	stop func() bool // unregisters the cancel; false once it has fired
	keep bool        // the edge did not say Connection: close
	err  error       // what reads return once pc is released
}

func (b *hopBody) Read(p []byte) (int, error) {
	if b.pc == nil {
		return 0, b.err
	}
	n, err := b.body.Read(p)
	switch {
	case err == io.EOF:
		// Bytes past the body would be read as the next response.
		b.release(err, b.stop() && b.keep && b.pc.br.Buffered() == 0)
	case err != nil:
		err = hopErr(b.ctx, err)
		b.stop()
		b.release(err, false)
	}
	return n, err
}

// Close ends the body. Before its end the connection is mid-response,
// so it is closed, never drained: a viewer that hung up waits for no
// bytes it will not read.
func (b *hopBody) Close() error {
	if b.pc != nil {
		b.stop()
		b.release(http.ErrBodyReadAfterClose, false)
	}
	return nil
}

func (b *hopBody) release(err error, reuse bool) {
	pc := b.pc
	b.pc, b.err = nil, err
	if reuse {
		b.t.put(pc)
	} else {
		pc.conn.Close()
	}
}
