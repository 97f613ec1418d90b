package dash

import (
	"context"
	"errors"
	"fmt"
	"time"
)

// ErrorKind classifies a client failure so callers (and the client's
// own retry loop) can tell transient trouble from permanent failure and
// degrade instead of crash.
type ErrorKind int

// Error kinds.
const (
	// KindTransient marks failures worth retrying: network errors, 5xx
	// and 429 responses, truncated or corrupt segment bodies, and the
	// segment of a chunk other than the one asked for.
	KindTransient ErrorKind = iota
	// kindFatal marks failures retrying cannot fix: 4xx responses and
	// malformed requests.
	kindFatal
	// KindCanceled marks the caller's context expiring; the client stops
	// retrying immediately.
	KindCanceled
	// KindOverload marks a shed: an admission guard refused the request
	// under load, in process (wrapping ErrUnavailable) or as a 503/429
	// carrying a Retry-After hint. Retryable, but the hint floors the
	// backoff so shed requests do not hammer a recovering node.
	KindOverload
)

func (k ErrorKind) String() string {
	switch k {
	case KindTransient:
		return "transient"
	case kindFatal:
		return "fatal"
	case KindOverload:
		return "overload"
	default:
		return "canceled"
	}
}

// Error is the typed failure a resilient Client returns, and the shed
// an admission guard returns in process (KindOverload).
type Error struct {
	// Op is the request path the failure happened on.
	Op string
	// Kind is the retry classification.
	Kind ErrorKind
	// Status is the HTTP status when one was received (0 otherwise).
	Status int
	// Attempts is how many tries the client made before giving up.
	Attempts int
	// RetryAfter is the shedder's Retry-After hint on a KindOverload
	// failure (zero otherwise). The retry loop uses it as the backoff
	// floor, and Server sends it as the Retry-After header.
	RetryAfter time.Duration
	// Err is the underlying cause.
	Err error
}

func (e *Error) Error() string {
	msg := fmt.Sprintf("dash: GET %s (%s, %d attempts)", e.Op, e.Kind, e.Attempts)
	if e.Status != 0 {
		msg += fmt.Sprintf(": status %d", e.Status)
	}
	if e.Err != nil {
		msg += ": " + e.Err.Error()
	}
	return msg
}

func (e *Error) Unwrap() error { return e.Err }

// retryable reports whether another attempt could succeed.
func (e *Error) retryable() bool { return e.Kind == KindTransient || e.Kind == KindOverload }

// ErrUnavailable marks a ChunkSource failure meaning "this server
// cannot serve right now" — a crashed cluster node, a draining
// process. The server maps anything wrapping it to 503 so resilient
// clients retry elsewhere instead of treating it as a synthesis bug.
var ErrUnavailable = errors.New("dash: service unavailable")

// ErrViewerGone marks a chunkStreamer failure on the response writer
// itself rather than on the chunk's source: the viewer hung up, so
// nobody is left to answer. The server records it as an abort, never as
// an error status, however few bytes reached the wire.
var ErrViewerGone = errors.New("dash: viewer gone")

// classifyCtx maps a request error to a kind, preferring the caller's
// context state: a canceled or expired parent context is KindCanceled,
// everything else that reached the network is transient.
func classifyCtx(ctx context.Context, err error) ErrorKind {
	if ctx.Err() != nil || errors.Is(err, context.Canceled) {
		return KindCanceled
	}
	return KindTransient
}
