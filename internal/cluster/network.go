package cluster

import (
	"context"
	"fmt"
	"net"
	"strconv"
	"sync"
	"syscall"
	"time"
)

// network is a wire node's carrier: where its edge loop listens and how
// the router's hop reaches it. Both ends run the same code on either
// carrier — serveEdge on the listener, hopTransport on the dialed
// connection — so the carrier decides only what moves the bytes.
type network interface {
	// listen binds addr, or a fresh address when addr is "".
	listen(addr string) (net.Listener, error)
	// dial connects to addr by deadline; a closed listener refuses it.
	dial(ctx context.Context, addr string, deadline time.Time) (net.Conn, error)
}

// tcpNetwork is the carrier that ships: loopback TCP.
type tcpNetwork struct{}

func (tcpNetwork) listen(addr string) (net.Listener, error) {
	if addr == "" {
		addr = "127.0.0.1:0"
	}
	return net.Listen("tcp", addr)
}

func (tcpNetwork) dial(ctx context.Context, addr string, deadline time.Time) (net.Conn, error) {
	d := net.Dialer{Deadline: deadline}
	return d.DialContext(ctx, "tcp", addr)
}

// memNetwork is the carrier without sockets (WithLoopback): each dial is
// one net.Pipe, whose far end the listener at addr accepts. A dial with
// no listener at addr, or one that closes before accepting it, is
// refused with ECONNREFUSED, deterministically and with no port taken.
// Addresses are "mem:N", fresh for each listen of "".
type memNetwork struct {
	mu   sync.Mutex
	next int
	ls   map[string]*memListener // the open ones
}

func newMemNetwork() *memNetwork { return &memNetwork{ls: make(map[string]*memListener)} }

func (m *memNetwork) listen(addr string) (net.Listener, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if addr == "" {
		m.next++
		addr = "mem:" + strconv.Itoa(m.next)
	}
	if m.ls[addr] != nil {
		return nil, &net.OpError{Op: "listen", Net: "mem", Addr: memAddr(addr), Err: syscall.EADDRINUSE}
	}
	l := &memListener{m: m, addr: memAddr(addr), conns: make(chan net.Conn), done: make(chan struct{})}
	m.ls[addr] = l
	return l, nil
}

func (m *memNetwork) dial(ctx context.Context, addr string, _ time.Time) (net.Conn, error) {
	m.mu.Lock()
	l := m.ls[addr]
	m.mu.Unlock()
	if l != nil {
		router, edge := net.Pipe()
		select {
		case l.conns <- edge:
			return router, nil
		case <-l.done:
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	return nil, &net.OpError{Op: "dial", Net: "mem", Addr: memAddr(addr), Err: syscall.ECONNREFUSED}
}

// memListener is one bound address of a memNetwork.
type memListener struct {
	m     *memNetwork
	addr  memAddr
	conns chan net.Conn
	done  chan struct{} // closed by Close
}

func (l *memListener) Accept() (net.Conn, error) {
	select {
	case c := <-l.conns:
		return c, nil
	case <-l.done:
		return nil, fmt.Errorf("accept %s: %w", l.addr, net.ErrClosed)
	}
}

// Close frees the address: later dials are refused, and it can be bound
// again.
func (l *memListener) Close() error {
	l.m.mu.Lock()
	defer l.m.mu.Unlock()
	if l.m.ls[string(l.addr)] == l {
		delete(l.m.ls, string(l.addr))
		close(l.done)
	}
	return nil
}

func (l *memListener) Addr() net.Addr { return l.addr }

type memAddr string

func (memAddr) Network() string  { return "mem" }
func (a memAddr) String() string { return string(a) }
