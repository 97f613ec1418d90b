package cluster

import (
	"bytes"
	"context"
	"math"
	"net"
	"os"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// faultNet is loopback TCP with faults scripted onto it. Its edge
// listeners count, per address, the connections they accept and, when
// scripted, hand each one to the address's script, so a test breaks a
// response byte-exactly at the edge's socket and restarts an edge only
// through kill and recover. A dial to an address none of its listeners
// holds is refused, as the kernel refuses it, before another process
// that took the port can answer. With drip set, each connection the router
// dials reads at most drip bytes at a time; being no *net.TCPConn, it
// turns the relay's splice into its block loop. A stall set on it holds
// the next dial.
type faultNet struct {
	tcpNetwork
	scripted bool
	drip     int
	stall    atomic.Pointer[dialStall]
	edges    sync.Map // listen address → *edgeScript
}

// dialStall holds one dial: began is closed as the dial stalls, and the
// dial goes on once release is closed.
type dialStall struct{ began, release chan struct{} }

// withFaults puts the cluster over the wire on f.
func withFaults(f *faultNet) Option { return func(c *config) { c.net = f } }

// at returns the script of the edge on addr, which outlives its restarts.
func (f *faultNet) at(addr string) *edgeScript {
	s, _ := f.edges.LoadOrStore(addr, &edgeScript{faults: make(chan connFault, 8), stalled: make(chan struct{}, 1)})
	return s.(*edgeScript)
}

// listen binds addr, or a fresh address no edge on f has had: one a
// killed edge still owns would send the router's dials for it to
// another edge.
func (f *faultNet) listen(addr string) (net.Listener, error) {
	ln, err := f.tcpNetwork.listen(addr)
	for addr == "" && err == nil {
		if _, had := f.edges.Load(ln.Addr().String()); !had {
			break
		}
		defer ln.Close()
		ln, err = f.tcpNetwork.listen(addr)
	}
	if err != nil {
		return nil, err
	}
	s := f.at(ln.Addr().String())
	s.open.Add(1)
	return &faultListener{Listener: ln, scripted: f.scripted, s: s}, nil
}

func (f *faultNet) dial(ctx context.Context, addr string, deadline time.Time) (net.Conn, error) {
	if s, ok := f.edges.Load(addr); ok && s.(*edgeScript).open.Load() == 0 {
		return nil, &net.OpError{Op: "dial", Net: "tcp", Err: os.NewSyscallError("connect", syscall.ECONNREFUSED)}
	}
	if s := f.stall.Swap(nil); s != nil {
		close(s.began)
		select {
		case <-s.release:
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	conn, err := f.tcpNetwork.dial(ctx, addr, deadline)
	if err != nil || f.drip <= 0 {
		return conn, err
	}
	return dripConn{Conn: conn, n: f.drip}, nil
}

type dripConn struct {
	net.Conn
	n int
}

func (c dripConn) Read(p []byte) (int, error) { return c.Conn.Read(p[:min(len(p), c.n)]) }

type faultListener struct {
	net.Listener
	scripted bool
	s        *edgeScript
	once     sync.Once
}

func (l *faultListener) Close() error {
	l.once.Do(func() { l.s.open.Add(-1) })
	return l.Listener.Close()
}

func (l *faultListener) Accept() (net.Conn, error) {
	conn, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	l.s.accepts.Add(1)
	if !l.scripted {
		return conn, nil
	}
	return &scriptConn{Conn: conn, s: l.s, closed: make(chan struct{})}, nil
}

// edgeScript is one edge address's script: the connections accepted
// there, and the faults its next responses take, one each, in order, on
// whichever connection each goes out.
type edgeScript struct {
	accepts atomic.Int64
	open    atomic.Int32   // listeners bound here and not closed
	faults  chan connFault // 8 deep: more than any test queues ahead
	stalled chan struct{}  // a send, when there is room, as a stall begins
}

// then queues f for the next response that takes none yet.
func (s *edgeScript) then(f connFault) { s.faults <- f }

// connFault breaks a response before its byte at, which counts from the
// body's first byte; the head sits just before it, at negative offsets.
type connFault struct {
	verb  faultVerb
	at    int
	stall time.Duration // stallAt's hold; 0: until the edge closes the connection
}

type faultVerb int

const (
	cutAt   faultVerb = iota // close the connection: the response ends there
	stallAt                  // hold the write there
	resetAt                  // abort the connection with a reset (SetLinger(0))
)

// beforeHead is the offset of a response's first byte, head included.
const beforeHead = math.MinInt32

// scriptConn is an edge's accepted connection under its script. A write
// that begins "HTTP/1.1 " is a response head, which takes the script's
// next fault: through a wrapped connection the edge writes its head apart
// from the body, since a writev needs the bare *net.TCPConn.
type scriptConn struct {
	net.Conn
	s      *edgeScript
	fault  *connFault // the current response's
	sent   int        // the current response's offset
	closed chan struct{}
	once   sync.Once
}

func (c *scriptConn) Write(p []byte) (int, error) {
	if bytes.HasPrefix(p, []byte("HTTP/1.1 ")) {
		c.fault, c.sent = nil, -len(p)
		select {
		case f := <-c.s.faults:
			c.fault = &f
		default:
		}
	}
	f := c.fault
	if f == nil || c.sent+len(p) <= f.at {
		c.sent += len(p)
		return c.Conn.Write(p)
	}
	c.fault = nil
	var n int
	if k := f.at - c.sent; k > 0 {
		var err error
		if n, err = c.Conn.Write(p[:k]); err != nil {
			return n, err
		}
	}
	switch f.verb {
	case resetAt:
		c.Conn.(*net.TCPConn).SetLinger(0)
		fallthrough
	case cutAt:
		c.Close()
		return n, net.ErrClosed
	}
	select {
	case c.s.stalled <- struct{}{}:
	default:
	}
	if f.stall == 0 {
		<-c.closed
		return n, net.ErrClosed
	}
	time.Sleep(f.stall)
	m, err := c.Conn.Write(p[n:])
	return n + m, err
}

func (c *scriptConn) Close() error {
	c.once.Do(func() { close(c.closed) })
	return c.Conn.Close()
}
