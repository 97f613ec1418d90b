//sperke:fixture path=internal/serve/seam.go
package serve

import "context"

// newFlightCtx mirrors the real store seam: a synthesis flight runs on a
// root of its own, canceled when its last caller departs. The function
// is on the ctxflow allowlist, so the fixture must stay clean.
func newFlightCtx() (context.Context, context.CancelFunc) {
	return context.WithCancel(context.Background())
}
