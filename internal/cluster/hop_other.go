//go:build !unix

package cluster

// edgeFailed has no non-blocking peek to look with here, so a failed
// handover is put down to the viewer: charging the edge for a hang-up
// trips its breaker, where an edge fault missed here is still found by
// the next request it gets.
func (pc *hopConn) edgeFailed() bool { return false }
