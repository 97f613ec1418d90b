package cluster

import (
	"sync"

	"sperke/internal/serve"
)

// Cross-node miss coalescing. Each edge store already collapses a
// same-key herd that lands on ONE node into a single origin synthesis
// (serve.Store's singleflight), but the router can spray a cold herd
// across edges: a request that arrives while its primary's breaker is
// half-open walks to the next-ranked edge, and the origin fallback
// bypasses the edges entirely — so two concurrent cold opens of the
// same key could still cost the origin two syntheses. The coalescer is
// the router-level singleflight that closes that gap: the first
// request for a key becomes the flight leader and does the ranked walk;
// requests arriving while the flight is open attach as followers.
//
// The leader publishes the moment its walk holds a whole body — an
// in-process edge's, a wire edge's resident slice read at open, or the
// origin fallback's — and before any byte goes to its own viewer, so
// no follower ever waits on a write to another viewer. An edge's body
// is written through to the key's cold co-owners first, so a closed
// flight's replicas are warm. A wire edge that holds no copy publishes
// "no body" at that same point, and a failed leader publishes its
// error: either way the followers walk on their own, which the edge
// stores' singleflight keeps cheap.

// routeFlight is one in-flight fetch of a key at the router. body and
// err are written by the leader (under the coalescer's mutex) before
// done closes; followers read them only after <-done, so the channel
// close is the publication barrier. done is made lazily by the first
// follower, under the mutex — a flight nobody attaches to (the common
// warm-path case) costs the leader one struct allocation and no
// channel.
type routeFlight struct {
	body []byte
	err  error
	done chan struct{}
}

// coalescer is the router's flight table.
type coalescer struct {
	mu      sync.Mutex
	flights map[serve.ChunkKey]*routeFlight
}

func newCoalescer() *coalescer {
	return &coalescer{flights: make(map[serve.ChunkKey]*routeFlight)}
}

// enter joins or opens the key's flight and reports whether the caller
// leads it.
func (co *coalescer) enter(key serve.ChunkKey) (*routeFlight, bool) {
	co.mu.Lock()
	defer co.mu.Unlock()
	if f := co.flights[key]; f != nil {
		if f.done == nil {
			f.done = make(chan struct{})
		}
		return f, false
	}
	f := &routeFlight{}
	co.flights[key] = f
	return f, true
}

// finish publishes the leader's outcome — a body, nil for none, or an
// error — and closes the flight. The first call wins and later ones
// are no-ops, so a leader publishes at the point its walk holds a body
// and also runs finish from a defer with its final error: a leader
// that left without publishing would hang its followers forever. A nil
// flight (a walk that leads none) publishes nothing.
func (co *coalescer) finish(key serve.ChunkKey, f *routeFlight, body []byte, err error) {
	if f == nil {
		return
	}
	co.mu.Lock()
	if co.flights[key] != f {
		co.mu.Unlock()
		return
	}
	delete(co.flights, key)
	f.body, f.err = body, err
	done := f.done
	co.mu.Unlock()
	if done != nil {
		close(done)
	}
}

// inFlight reports whether a fetch of key is currently open — the
// pre-warmer checks it to avoid racing a synthesis that is about to
// warm the same owners anyway.
func (co *coalescer) inFlight(key serve.ChunkKey) bool {
	co.mu.Lock()
	defer co.mu.Unlock()
	return co.flights[key] != nil
}
