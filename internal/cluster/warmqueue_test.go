package cluster

import (
	"runtime"
	"testing"
	"time"

	"sperke/internal/hmp"
	"sperke/internal/serve"
	"sperke/internal/sim"
)

// The crowd heatmap is the production tilePrior — pin the structural
// match at compile time so a signature drift in either package fails
// the build, not a deployment.
var _ tilePrior = (*hmp.Heatmap)(nil)

// fakePrior predicts the same tile set at every playhead.
type fakePrior struct{ tiles []int }

func (p *fakePrior) TopTilesAt(index, k int) []int {
	if k > len(p.tiles) {
		k = len(p.tiles)
	}
	return p.tiles[:k]
}

// drainWarms is c.DrainWarms bounded by recv's 10 s.
func drainWarms(t *testing.T, c *Cluster) {
	t.Helper()
	done := make(chan struct{})
	go func() {
		c.DrainWarms()
		close(done)
	}()
	recv(t, "DrainWarms to return", done)
}

// TestPrewarmFetchesPredictedNeighbors is the tentpole's pre-warm
// acceptance: serving one tile enqueues the crowd prior's neighbor
// tiles, the worker synthesizes each once into its rendezvous owner
// under cluster.prewarm_fetches (never cluster.origin_fetches), and
// the next viewer of those tiles is served warm — the offload ratio
// counts them as origin-free.
func TestPrewarmFetchesPredictedNeighbors(t *testing.T) {
	origin := &countingOrigin{}
	c, err := New(origin, WithNodes(2),
		WithPrewarm(&fakePrior{tiles: []int{1, 2}}, 2), WithClock(sim.NewClock(1)))
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		// A queue wedged under its lock wedges Close too: after a
		// failure, report it without waiting for Close.
		if t.Failed() {
			go c.Close()
			return
		}
		c.Close()
	}()
	key := serve.ChunkKey{Video: "vid", Quality: 0, Tile: 0, Index: 0}
	fetchKey(t, c, key)
	drainWarms(t, c)
	if got := c.PrewarmFetches(); got != 2 {
		t.Fatalf("prewarm_fetches = %d, want 2", got)
	}
	if got := c.Prewarms(); got != 2 {
		t.Fatalf("prewarms = %d, want 2", got)
	}
	if got := c.met.originFetches.Value(); got != 1 {
		t.Fatalf("origin_fetches = %d after prewarming, want 1 — speculative fetches must not count", got)
	}
	// Each predicted tile landed in its own rendezvous owner's cache.
	m := c.mem.Load()
	for _, tile := range []int{1, 2} {
		pk := key
		pk.Tile = tile
		owner := m.byID[Rank(pk, m.ids)[0]]
		if !owner.store.Contains(pk) {
			t.Fatalf("tile %d not resident on its owner %s after prewarm", tile, owner.ID())
		}
	}
	// The predicted viewers arrive: warm serves, no new origin work.
	before := origin.count()
	for _, tile := range []int{1, 2} {
		pk := key
		pk.Tile = tile
		if got := fetchKey(t, c, pk); string(got) != string(originBody(pk)) {
			t.Fatalf("prewarmed tile %d body %q, want %q", tile, got, originBody(pk))
		}
	}
	drainWarms(t, c)
	if origin.count() != before {
		t.Fatalf("serving prewarmed tiles cost %d extra origin calls, want 0", origin.count()-before)
	}
	if req, fetches := c.OffloadCounts(); req != 3 || fetches != 1 {
		t.Fatalf("OffloadCounts = (%d, %d), want (3, 1)", req, fetches)
	}
}

// TestPrewarmSkipsServedTileAndDuplicates: the prior ranks the served
// tile among its neighbours, and the pre-warmer fetches it no second
// time, though its owner could not cache it.
func TestPrewarmSkipsServedTileAndDuplicates(t *testing.T) {
	playSeed(t, "prewarm-skips-the-served-tile")
}

// TestOriginStoreKeepsOnlyFallbacks: an edge's miss and a pre-warm Pull
// the origin, which keeps no copy of what they fetch.
func TestOriginStoreKeepsOnlyFallbacks(t *testing.T) { playSeed(t, "prewarm-pulls-the-origin") }

// TestWarmQueueDropsOldestWhenFull pins the bounded queue's overload
// behavior: with the worker stuck on one job and the queue at
// capacity, a new enqueue evicts the OLDEST waiting job — the one
// whose playhead relevance has decayed most — counts it under
// cluster.warm_drops, and clears its pending mark so the key can be
// predicted again later.
func TestWarmQueueDropsOldestWhenFull(t *testing.T) {
	keyAt := func(tile int) serve.ChunkKey {
		return serve.ChunkKey{Video: "vid", Quality: 0, Tile: tile, Index: 0}
	}
	origin := newBlockingOrigin(keyAt(0))
	c, err := New(origin, WithNodes(1), withWarmQueue(2), WithClock(sim.NewClock(1)))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	// Occupy the worker: it dequeues tile 0's pre-warm and blocks inside
	// the origin synthesis, leaving the queue empty.
	c.warmQ.markPending(keyAt(0))
	c.enqueueWarm(keyAt(0))
	<-origin.arrived
	// Fill the queue to its cap of 2, then overflow it.
	for tile := 1; tile <= 3; tile++ {
		c.warmQ.markPending(keyAt(tile))
		c.enqueueWarm(keyAt(tile))
	}
	if got := c.WarmDrops(); got != 1 {
		t.Fatalf("warm_drops = %d, want 1", got)
	}
	close(origin.release)
	c.DrainWarms()
	if got := c.PrewarmFetches(); got != 3 {
		t.Fatalf("prewarm_fetches = %d, want 3 — tiles 0, 2, 3 execute", got)
	}
	edge := c.Node("edge-0")
	for tile, want := range map[int]bool{0: true, 1: false, 2: true, 3: true} {
		if got := edge.store.Contains(keyAt(tile)); got != want {
			t.Fatalf("tile %d resident = %v, want %v", tile, got, want)
		}
	}
	// The dropped key's pending mark was cleared — it can be re-queued.
	if !c.warmQ.markPending(keyAt(1)) {
		t.Fatal("dropped key still marked pending")
	}
}

// TestDrainWarmsIdleAndCloseIdempotent: DrainWarms returns before the
// worker has started and after Close, and a second Close is harmless.
func TestDrainWarmsIdleAndCloseIdempotent(t *testing.T) {
	playSeed(t, "prewarm-drains-idle-and-closes-twice")
}

// TestCloseStopsAStalledPrewarm: Close cancels a pre-warm synthesis the
// origin has stalled on. The origin holds a pre-warm key until its
// context ends; after Close, a DrainWarms caller that was waiting on
// that pre-warm returns, and the warm worker exits with every other
// goroutine the cluster started.
func TestCloseStopsAStalledPrewarm(t *testing.T) {
	before := runtime.NumGoroutine()
	stalled := serve.ChunkKey{Video: "vid", Quality: 0, Tile: 1, Index: 0}
	origin := newBlockingOrigin(stalled)
	origin.honorCtx = true
	defer close(origin.release)
	c, err := New(origin, WithNodes(1),
		WithPrewarm(&fakePrior{tiles: []int{1}}, 1), WithClock(sim.NewClock(1)))
	if err != nil {
		t.Fatal(err)
	}
	fetchKey(t, c, serve.ChunkKey{Video: "vid", Quality: 0, Tile: 0, Index: 0})
	<-origin.arrived // the worker is inside the stalled pre-warm synthesis
	drained := make(chan struct{})
	go func() {
		c.DrainWarms()
		close(drained)
	}()
	waitFor(t, "the DrainWarms caller to wait on the worker", func() bool {
		c.warmQ.mu.Lock()
		defer c.warmQ.mu.Unlock()
		return len(c.warmQ.waiters) == 1
	})
	c.Close()
	select {
	case <-drained:
	case <-time.After(time.Second):
		t.Fatal("DrainWarms still blocked 1s after Close: the stalled pre-warm outlived the cluster")
	}
	waitFor(t, "goroutines back to their baseline", func() bool { return runtime.NumGoroutine() <= before })
}
