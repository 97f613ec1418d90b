//sperke:fixture path=internal/transport/seam.go
package transport

import "context"

// Request mirrors the real transport seam: a submitter may leave Ctx
// nil, and Request.Context materializes the Background root for that
// case. The function is on the ctxflow allowlist, so the fixture must
// stay clean.
type Request struct{ Ctx context.Context }

func (r *Request) Context() context.Context {
	if r.Ctx == nil {
		return context.Background()
	}
	return r.Ctx
}
