//sperke:fixture path=internal/cluster/bad.go
package cluster

import "io"

// relay slurps the edge's response body into one materialized []byte
// per request — exactly what the router's copy-block relay exists to
// avoid.
func relay(body io.Reader) ([]byte, error) {
	return io.ReadAll(body)
}
