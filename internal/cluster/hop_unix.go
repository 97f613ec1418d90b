//go:build unix

package cluster

import (
	"net"
	"syscall"
)

// edgeFailed reports whether the edge's end of the connection shows why a
// transfer from it broke: a peek that neither blocks nor consumes reads
// EOF or an error, or the exchange's deadline has passed. A byte waiting,
// or none yet (EAGAIN), means the edge was still sending. Only a handover
// asks, and a handover runs on a TCP socket (hopBody.socket).
func (pc *hopConn) edgeFailed() bool {
	rc, err := pc.conn.(*net.TCPConn).SyscallConn()
	if err != nil {
		return true
	}
	failed := true
	err = rc.Read(func(fd uintptr) bool {
		var b [1]byte
		n, _, err := syscall.Recvfrom(int(fd), b[:], syscall.MSG_PEEK|syscall.MSG_DONTWAIT)
		failed = n <= 0 && err != syscall.EAGAIN
		return true
	})
	return failed || err != nil
}
