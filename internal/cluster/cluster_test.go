package cluster

import (
	"context"
	"net/http"
	"strconv"
	"sync"
	"testing"

	"sperke/internal/serve"
)

func originBody(key serve.ChunkKey) []byte { return []byte("origin:" + key.String()) }

// countingOrigin is a deterministic origin that counts synthesis calls.
type countingOrigin struct {
	mu    sync.Mutex
	calls int
}

func (o *countingOrigin) Chunk(ctx context.Context, videoID string, quality, tile, index int, layer bool) ([]byte, error) {
	o.mu.Lock()
	o.calls++
	o.mu.Unlock()
	return originBody(serve.ChunkKey{Video: videoID, Quality: quality, Tile: tile, Index: index, Layer: layer}), nil
}

func (o *countingOrigin) count() int {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.calls
}

// withMaxInFlight, withWarmQueue and withNodeShards set the three sizes
// no exported option reaches, for the tests that need an edge to
// saturate at one request, the warm queue to overflow at two jobs, or
// an edge store of the two shards the model harness models.
func withMaxInFlight(n int) Option { return func(c *config) { c.maxInFlight = n } }
func withWarmQueue(n int) Option   { return func(c *config) { c.warmQueueCap = n } }
func withNodeShards(n int) Option  { return func(c *config) { c.nodeShards = n } }

// withEdge puts the cluster over the wire with every edge loop answering
// with what h builds for its node: the handler seam of the wire tests.
func withEdge(h func(*Node) http.Handler) Option {
	return func(c *config) {
		WithWire(true)(c)
		c.edge = h
	}
}

// fixedEdge answers every request with a 200 declaring length — none
// when it is negative — and body, without touching the node's store. The
// edge loop sends no byte past a declared length, and closes the
// connection after a body that ends short of it.
func fixedEdge(length int64, body []byte) func(*Node) http.Handler {
	return func(*Node) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
			if length >= 0 {
				w.Header().Set("Content-Length", strconv.FormatInt(length, 10))
			}
			w.Write(body)
		})
	}
}

func fetchKey(t *testing.T, c *Cluster, key serve.ChunkKey) []byte {
	t.Helper()
	body, err := c.Chunk(context.Background(), key.Video, key.Quality, key.Tile, key.Index, key.Layer)
	if err != nil {
		t.Fatalf("Chunk(%v): %v", key, err)
	}
	return body
}
