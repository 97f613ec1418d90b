package cluster

import (
	"context"
	"net"
	"time"
)

// network is a wire node's carrier: where its edge loop listens and how
// the router's hop reaches it — serveEdge on the listener, hopTransport
// on the dialed connection. The one that ships is tcpNetwork; the
// interface is the seam a test substitutes to script faults on it.
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
