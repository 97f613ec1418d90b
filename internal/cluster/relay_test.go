package cluster

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"syscall"
	"testing"

	"sperke/internal/dash"
	"sperke/internal/obs"
	"sperke/internal/sim"
)

// hangupWriter is a viewer that hung up while its request's context is
// still live — the race a real hang-up loses when the RST beats the
// server's background read: every Write fails with EPIPE.
type hangupWriter struct{ h http.Header }

func (w *hangupWriter) Header() http.Header         { return w.h }
func (w *hangupWriter) WriteHeader(int)             {}
func (w *hangupWriter) Write(p []byte) (int, error) { return 0, syscall.EPIPE }

// TestViewerHangupIsNotTheEdges: a failed write to the viewer is the
// sink's failure, not the source's. Four hang-ups through the front
// door or StreamChunk, over real listeners or in-process edges, cost
// one edge exchange each, trip no breaker, fall back to the origin
// never, and reach dash.Server as aborts, not 500s. Charged to the edge,
// they declared all three down and fetched four bodies from the origin
// for nobody.
func TestViewerHangupIsNotTheEdges(t *testing.T) {
	v := wireVideo()
	key := wireKeys(v)[0]
	const hangups = 4
	for _, carrier := range []string{"wire", "in-process"} {
		for _, sink := range []string{"front-door", "StreamChunk"} {
			t.Run(carrier+"/"+sink, func(t *testing.T) {
				reg := obs.NewRegistry()
				opts := []Option{WithNodes(3), WithCatalog(wireCatalog(t, v)), WithObs(reg), WithClock(sim.NewClock(1))}
				if carrier == "wire" {
					opts = append(opts, WithWire(true))
				}
				c, err := New(&countingOrigin{}, opts...)
				if err != nil {
					t.Fatal(err)
				}
				defer func() {
					for _, n := range c.Nodes() {
						n.retire()
					}
					c.Close()
				}()
				path := fmt.Sprintf("/v/%s/c/%d/%d/%d", key.Video, key.Quality, key.Tile, key.Index)
				for i := 0; i < hangups; i++ {
					w := &hangupWriter{h: make(http.Header)}
					if sink == "front-door" {
						c.FrontDoor().ServeHTTP(w, httptest.NewRequest(http.MethodGet, path, nil))
						continue
					}
					if _, err := c.StreamChunk(context.Background(), w, key.Video, key.Quality, key.Tile, key.Index, key.Layer); !errors.Is(err, dash.ErrViewerGone) {
						t.Fatalf("hang-up %d: StreamChunk returned %v, want dash.ErrViewerGone", i, err)
					}
				}
				var exchanges int64
				for _, n := range c.Nodes() {
					exchanges += n.Requests()
					if got := reg.Gauge("cluster.health." + n.ID() + ".alive").Value(); got != 1 {
						t.Errorf("%s declared down by a viewer's hang-up", n.ID())
					}
				}
				if got := reg.Counter("cluster.health.down_transitions").Value(); got != 0 {
					t.Errorf("cluster.health.down_transitions = %d, want 0", got)
				}
				if exchanges != hangups {
					t.Errorf("%d hang-ups cost %d edge exchanges, want one each", hangups, exchanges)
				}
				if got := c.met.originFallbacks.Value(); got != 0 {
					t.Errorf("cluster.origin_fallbacks = %d, want 0", got)
				}
				if sink != "front-door" {
					return
				}
				if canceled, errs := reg.Counter("dash.server.canceled").Value(), reg.Counter("dash.server.errors").Value(); canceled != hangups || errs != 0 {
					t.Errorf("dash.server.canceled = %d, errors = %d; want %d and 0", canceled, errs, hangups)
				}
			})
		}
	}
}

// writeCounter is a viewer that takes every byte and counts the writes
// that brought them.
type writeCounter struct {
	h         http.Header
	writes, n int
}

func (w *writeCounter) Header() http.Header { return w.h }
func (w *writeCounter) WriteHeader(int)     {}
func (w *writeCounter) Write(p []byte) (int, error) {
	w.writes++
	w.n += len(p)
	return len(p), nil
}

// TestRelayTurns: over an edge whose body hands over all it holds per
// read, each read reaches the viewer in one write. A 100 KB body fits
// its 128 KiB block and crosses in one turn (four through a 32 KiB
// one); a 300 KB body is past the largest class and takes two; kept for
// a replica, the body is its own block and crosses in one — and over an
// edge that trickles it a byte per read, in one write per byte,
// forwarded as each read lands rather than slurped whole first. A kept
// body is handed out sealed (len == cap), so no two holders share room.
func TestRelayTurns(t *testing.T) {
	v := wireVideo()
	key := wireKeys(v)[0]
	for _, tc := range []struct {
		n, replicas, writes int
		trickle             bool
	}{
		{100_000, 1, 1, false},
		{300_000, 1, 2, false},
		{300_000, 2, 1, false},
		{1_000, 2, 1_000, true},
	} {
		c, err := New(&countingOrigin{}, WithNodes(tc.replicas), WithReplication(tc.replicas),
			WithTransport(&truncatingTransport{declared: int64(tc.n), body: strings.Repeat("x", tc.n), trickle: tc.trickle}),
			WithCatalog(wireCatalog(t, v)), WithClock(sim.NewClock(1)))
		if err != nil {
			t.Fatal(err)
		}
		w := &writeCounter{h: make(http.Header)}
		_, err = c.StreamChunk(context.Background(), w, key.Video, key.Quality, key.Tile, key.Index, key.Layer)
		kept, kerr := c.Chunk(context.Background(), key.Video, key.Quality, key.Tile, key.Index, key.Layer)
		c.Close()
		if err = errors.Join(err, kerr); err != nil {
			t.Fatalf("%d bytes, R=%d: %v", tc.n, tc.replicas, err)
		}
		if w.n != tc.n || w.writes != tc.writes {
			t.Fatalf("%d bytes, R=%d: %d bytes in %d writes, want all in %d", tc.n, tc.replicas, w.n, w.writes, tc.writes)
		}
		if len(kept) != tc.n || cap(kept) != len(kept) {
			t.Fatalf("%d bytes, R=%d: kept body has len %d, cap %d; want %d, sealed", tc.n, tc.replicas, len(kept), cap(kept), tc.n)
		}
	}
}
