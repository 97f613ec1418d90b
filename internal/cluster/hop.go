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

	"sperke/internal/dash"
)

// hopBufLen sizes the buffers either end of a hop connection keeps: the
// router's reader and writer, the edge's reader. A request (about 100
// bytes) and a response head fit. It is small on purpose: what the
// router's reader takes of a body with the head is the part the process
// copies, flushed out with the front door's own head, and the rest
// crosses socket to socket (handOver).
const hopBufLen = 1 << 10

// hopExpired is the past deadline a canceled exchange's connection is
// given, so a read or write blocked on it returns at once.
var hopExpired = time.Unix(1, 0)

// hopTransport is the router's keep-alive pool to one wire edge, on the
// edge's network, and get is the one exchange it runs there. An exchange
// runs on the caller's goroutine from the request's first byte to the
// body's last:
// the GET line written into the connection's buffer and one Flush out,
// http.ReadResponse in — net/http's own parser on a connection the
// caller holds — so no goroutine is started or woken per exchange, and
// no http.Request, dash.Client or derived context is built for one.
//
// The exchange's one deadline is the socket's: the caller's context
// deadline or dash.DefaultTimeout from now, whichever comes first. A
// cancel of the caller's own context sets a deadline already past, so a
// blocked read or write returns — a splice included. The body hands its
// connection back only when it was read to EOF or handed over whole, the
// cancel had not fired and the edge did not say Connection: close; every
// other ending closes it. The pool is LIFO and holds at most the edge's
// admission bound, so every request the edge can have in flight finds
// its connection again.
//
// Nothing ages an idle connection. One the edge closed while it sat idle
// — its own idle limit, or a crash and restart — fails before the first
// response byte, and the GET is re-sent once on a fresh dial with the
// whole pool dropped, since the edge will have closed its neighbours
// too: a restarted edge costs one dial, not one dead connection per
// pooled entry, and no failure reaches the health layer.
type hopTransport struct {
	net  network
	addr string

	mu      sync.Mutex
	idle    []*hopConn // the most recently returned last
	maxIdle int
	retired bool // retire ran: returning connections are closed
}

// hopConn is one pooled connection with the buffers and the cancel hook
// it keeps for life.
type hopConn struct {
	conn   net.Conn
	br     *bufio.Reader
	bw     *bufio.Writer
	expire func() // sets hopExpired on conn
}

func newHopTransport(nw network, addr string, maxIdle int) *hopTransport {
	return &hopTransport{net: nw, addr: addr, maxIdle: maxIdle}
}

// chunkStream is one chunk the hop opened on a wire edge: the live
// response body, which its consumer (the relay, or a probe) must close,
// and the Content-Length the edge declared, -1 for none. The zero value
// is the in-process edge's answer, which has no body to stream.
type chunkStream struct {
	body   io.ReadCloser
	length int64
}

// get sends GET path — dash.ChunkPath's, or another path already
// escaped, so it holds no space, CR or LF — and reads the response head.
// A 200 comes back as a stream whose body holds the connection until it
// ends. Everything else is a *dash.Error of one attempt: a non-200 as
// dash.StatusError classifies it, and a dial or exchange that failed as
// KindCanceled once ctx is done, KindTransient otherwise; a read of the
// body that fails comes back the same way.
func (t *hopTransport) get(ctx context.Context, path string) (chunkStream, error) {
	deadline := wallDeadline(dash.DefaultTimeout)
	if d, ok := ctx.Deadline(); ok && d.Before(deadline) {
		deadline = d
	}
	pc := t.take()
	reused := pc != nil
	var err error
	if !reused {
		if pc, err = t.dial(ctx, deadline); err != nil {
			return chunkStream{}, hopError(ctx, path, err)
		}
	}
	resp, stale, err := t.exchange(ctx, pc, path, deadline)
	if stale && reused && ctx.Err() == nil {
		t.drop(false)
		if pc, err = t.dial(ctx, deadline); err != nil {
			return chunkStream{}, hopError(ctx, path, err)
		}
		resp, _, err = t.exchange(ctx, pc, path, deadline)
	}
	if err != nil {
		return chunkStream{}, hopError(ctx, path, err)
	}
	if resp.StatusCode != http.StatusOK {
		// wallDeadline(0) is now, against which an HTTP-date Retry-After
		// is a duration.
		derr := dash.StatusError(path, resp, wallDeadline(0))
		derr.Attempts = 1
		resp.Body.Close()
		return chunkStream{}, derr
	}
	return chunkStream{body: resp.Body, length: resp.ContentLength}, nil
}

func (t *hopTransport) dial(ctx context.Context, deadline time.Time) (*hopConn, error) {
	conn, err := t.net.dial(ctx, t.addr, deadline)
	if err != nil {
		return nil, err
	}
	return &hopConn{
		conn:   conn,
		br:     bufio.NewReaderSize(conn, hopBufLen),
		bw:     bufio.NewWriterSize(conn, hopBufLen),
		expire: func() { conn.SetDeadline(hopExpired) },
	}, nil
}

// exchange sends GET path on pc under deadline and reads the response
// head, handing pc to the response's body. On failure pc is closed, and
// stale reports that it failed before the first response byte the way a
// connection its peer closed does.
func (t *hopTransport) exchange(ctx context.Context, pc *hopConn, path string, deadline time.Time) (resp *http.Response, stale bool, err error) {
	pc.conn.SetDeadline(deadline)
	stop := context.AfterFunc(ctx, pc.expire)
	pc.bw.WriteString("GET ")
	pc.bw.WriteString(path)
	pc.bw.WriteString(" HTTP/1.1\r\nHost: ")
	pc.bw.WriteString(t.addr)
	pc.bw.WriteString("\r\n\r\n")
	err = pc.bw.Flush() // reports the first failed write too
	if err == nil {
		_, err = pc.br.Peek(1)
	}
	if err != nil {
		stale = errors.Is(err, io.EOF) || errors.Is(err, syscall.ECONNRESET) ||
			errors.Is(err, syscall.EPIPE) || errors.Is(err, net.ErrClosed) ||
			errors.Is(err, io.ErrClosedPipe) // net.Pipe's EPIPE
	} else if resp, err = http.ReadResponse(pc.br, nil); err == nil {
		resp.Body = &hopBody{body: resp.Body, pc: pc, t: t, ctx: ctx, path: path, stop: stop, keep: !resp.Close}
		return resp, false, nil
	}
	stop()
	pc.conn.Close()
	return nil, stale, err
}

// hopError is the typed failure of an exchange on path. A failure the
// connection's deadline caused reads as the end of the context that set
// it, or as context.DeadlineExceeded when the deadline was
// dash.DefaultTimeout's.
func hopError(ctx context.Context, path string, err error) *dash.Error {
	kind := dash.KindTransient
	if ctx.Err() != nil {
		kind = dash.KindCanceled
	}
	if errors.Is(err, os.ErrDeadlineExceeded) {
		if err = context.Cause(ctx); err == nil {
			err = context.DeadlineExceeded
		}
	}
	return &dash.Error{Op: path, Kind: kind, Attempts: 1, Err: err}
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
	path string
	stop func() bool      // unregisters the cancel; false once it has fired
	keep bool             // the edge did not say Connection: close
	err  error            // what reads return once pc is released
	lr   io.LimitedReader // handOver's source: the bare socket, as splice needs it
}

// handOver moves the rest of a body of declared length to w, whose
// ReadFrom is rf, and ends the exchange. What the reader already holds of
// the body goes out first, flushed with w's head, so net/http sends the
// two in one write and skips the 512-byte copy it makes ahead of a
// ReadFrom of its own. rf then takes the rest straight from the socket
// through b.lr, and net/http's response hands that to *net.TCPConn's
// ReadFrom, which splices it edge socket → pipe → viewer socket: no byte
// past the reader's is copied in the process, and none past length
// moves. A body the edge ended short returns fewer bytes and no error,
// for the relay's length check. A transfer that failed is the edge's —
// the hop's typed error — when the caller left or the edge's socket shows
// it (edgeFailed); otherwise the viewer's side broke, and the error wraps
// dash.ErrViewerGone. The connection goes back to the pool on Read's
// rules: the exact body, the cancel unfired, no Connection: close and
// nothing left in the reader.
func (b *hopBody) handOver(w http.ResponseWriter, rf io.ReaderFrom, length int64) (int64, error) {
	pc := b.pc
	held, _ := pc.br.Peek(int(min(int64(pc.br.Buffered()), length))) // no more than is buffered: no error
	m, err := w.Write(held)
	pc.br.Discard(m)
	n := int64(m)
	if err != nil {
		err = viewerGone(err)
	} else {
		if f, ok := w.(http.Flusher); ok {
			f.Flush()
		}
		b.lr = io.LimitedReader{R: pc.conn, N: length - n}
		var rest int64
		rest, err = rf.ReadFrom(&b.lr)
		n += rest
		switch {
		case err == nil:
		case b.ctx.Err() != nil || pc.edgeFailed():
			err = hopError(b.ctx, b.path, err)
		default:
			err = viewerGone(err)
		}
	}
	end := err
	if end == nil {
		end = io.EOF
	}
	b.release(end, b.stop() && err == nil && n == length && b.keep && pc.br.Buffered() == 0)
	return n, err
}

// socket reports whether the body's connection is a TCP socket, which a
// handover needs: splice moves bytes between sockets, and only a socket
// shows whose side a failed transfer broke (edgeFailed).
func (b *hopBody) socket() bool {
	_, ok := b.pc.conn.(*net.TCPConn)
	return ok
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
		err = hopError(b.ctx, b.path, err)
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
