//sperke:fixture path=internal/cluster/clean.go
package cluster

import "io"

// relay streams the edge's response into the caller's writer through
// a reused copy block — no whole-body materialization.
func relay(w io.Writer, body io.Reader, block []byte) (int64, error) {
	return io.CopyBuffer(w, body, block)
}
