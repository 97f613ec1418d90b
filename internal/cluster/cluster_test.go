package cluster

import (
	"context"
	"errors"
	"net/http"
	"slices"
	"strconv"
	"sync"
	"testing"
	"time"

	"sperke/internal/dash"
	"sperke/internal/serve"
	"sperke/internal/sim"
)

// originFunc adapts a key-level function into a dash.ChunkSource.
type originFunc func(ctx context.Context, key serve.ChunkKey) ([]byte, error)

func (f originFunc) Chunk(ctx context.Context, videoID string, quality, tile, index int, layer bool) ([]byte, error) {
	return f(ctx, serve.ChunkKey{Video: videoID, Quality: quality, Tile: tile, Index: index, Layer: layer})
}

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

// withMaxInFlight and withWarmQueue set the two bounds no exported
// option reaches, for the tests that need an edge to saturate at one
// request or the warm queue to overflow at two jobs.
func withMaxInFlight(n int) Option { return func(c *config) { c.maxInFlight = n } }
func withWarmQueue(n int) Option   { return func(c *config) { c.warmQueueCap = n } }

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

func TestChunkRoutesToTopRankedNode(t *testing.T) {
	origin := &countingOrigin{}
	c, err := New(origin, WithNodes(3), WithClock(sim.NewClock(1)))
	if err != nil {
		t.Fatal(err)
	}
	keys := testKeys(60)
	for _, key := range keys {
		got := fetchKey(t, c, key)
		if string(got) != string(originBody(key)) {
			t.Fatalf("key %v: body %q, want %q", key, got, originBody(key))
		}
	}
	// Every key must live on exactly its rendezvous winner.
	owned := 0
	for _, key := range keys {
		top := Rank(key, c.NodeNames())[0]
		for _, n := range c.Nodes() {
			if n.Store().Contains(key) != (n.ID() == top) {
				t.Fatalf("key %v: cached on %s, rendezvous owner is %s", key, n.ID(), top)
			}
		}
		owned++
	}
	if owned != len(keys) {
		t.Fatalf("checked %d keys, want %d", owned, len(keys))
	}
	var reqs int64
	for _, n := range c.Nodes() {
		reqs += n.Requests()
	}
	if reqs != int64(len(keys)) {
		t.Fatalf("nodes admitted %d requests, want %d", reqs, len(keys))
	}
	if c.met.reroutes.Value() != 0 {
		t.Fatalf("reroutes = %d on a healthy cluster", c.met.reroutes.Value())
	}
}

func TestChunkSecondFetchIsEdgeHit(t *testing.T) {
	origin := &countingOrigin{}
	c, err := New(origin, WithNodes(3), WithClock(sim.NewClock(1)))
	if err != nil {
		t.Fatal(err)
	}
	keys := testKeys(30)
	for _, key := range keys {
		fetchKey(t, c, key)
	}
	cold := origin.count()
	if cold != len(keys) {
		t.Fatalf("cold pass hit the origin %d times, want %d", cold, len(keys))
	}
	for _, key := range keys {
		fetchKey(t, c, key)
	}
	if origin.count() != cold {
		t.Fatalf("warm pass hit the origin %d more times, want 0", origin.count()-cold)
	}
	if got := c.OffloadPercent(); got != 50 {
		// 60 requests, 30 origin fetches.
		t.Fatalf("OffloadPercent = %v, want 50", got)
	}
}

func TestNodeShedsWhenSaturated(t *testing.T) {
	started := make(chan struct{})
	release := make(chan struct{})
	blocked := serve.ChunkKey{Video: "vid", Quality: 0, Tile: 0, Index: 0}
	origin := originFunc(func(ctx context.Context, key serve.ChunkKey) ([]byte, error) {
		if key == blocked {
			close(started)
			<-release
		}
		return originBody(key), nil
	})
	c, err := New(origin, WithNodes(1), withMaxInFlight(1), WithClock(sim.NewClock(1)))
	if err != nil {
		t.Fatal(err)
	}
	n := c.Node("edge-0")
	done := make(chan error, 1)
	go func() {
		_, err := n.Chunk(context.Background(), blocked.Video, blocked.Quality, blocked.Tile, blocked.Index, blocked.Layer)
		done <- err
	}()
	<-started
	_, err = n.Chunk(context.Background(), "vid", 1, 1, 1, false)
	var de *dash.Error
	if !errors.As(err, &de) || de.Kind != dash.KindOverload {
		t.Fatalf("saturated node returned %v, want a KindOverload *dash.Error", err)
	}
	if de.RetryAfter != time.Second {
		t.Fatalf("RetryAfter = %v, want the 1s every shed carries", de.RetryAfter)
	}
	if !errors.Is(err, dash.ErrUnavailable) {
		t.Fatal("overload error does not match dash.ErrUnavailable")
	}
	if n.Requests() != 1 {
		t.Fatalf("shed request counted as admitted: Requests = %d", n.Requests())
	}
	close(release)
	if err := <-done; err != nil {
		t.Fatalf("occupying request failed: %v", err)
	}
}

func TestClusterShedGoesStraightToOrigin(t *testing.T) {
	started := make(chan struct{})
	release := make(chan struct{})
	blocked := serve.ChunkKey{Video: "vid", Quality: 0, Tile: 0, Index: 0}
	origin := originFunc(func(ctx context.Context, key serve.ChunkKey) ([]byte, error) {
		if key == blocked {
			close(started)
			<-release
		}
		return originBody(key), nil
	})
	c, err := New(origin, WithNodes(1), withMaxInFlight(1), WithClock(sim.NewClock(1)))
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		_, err := c.Chunk(context.Background(), blocked.Video, blocked.Quality, blocked.Tile, blocked.Index, blocked.Layer)
		done <- err
	}()
	<-started
	// The only edge is saturated: the router must absorb the shed at the
	// origin rather than queueing or erroring.
	other := serve.ChunkKey{Video: "vid", Quality: 1, Tile: 1, Index: 1}
	body := fetchKey(t, c, other)
	if string(body) != string(originBody(other)) {
		t.Fatalf("shed fallback body %q, want %q", body, originBody(other))
	}
	if got := c.met.sheds.Value(); got != 1 {
		t.Fatalf("cluster.sheds = %d, want 1", got)
	}
	if got := c.met.originFallbacks.Value(); got != 1 {
		t.Fatalf("cluster.origin_fallbacks = %d, want 1", got)
	}
	// A shed is overload, not failure: the node must still be alive.
	if got := c.reg.Gauge("cluster.health.edge-0.alive").Value(); got != 1 {
		t.Fatalf("shedding node marked dead: alive = %d", got)
	}
	close(release)
	if err := <-done; err != nil {
		t.Fatalf("occupying request failed: %v", err)
	}
}

func TestKilledNodeFailsOverAndIsDeclaredDown(t *testing.T) {
	origin := &countingOrigin{}
	clock := sim.NewClock(1)
	c, err := New(origin, WithNodes(3), WithClock(clock))
	if err != nil {
		t.Fatal(err)
	}
	keys := testKeys(60)
	// Pick a key owned by a known node, then kill that node.
	key := keys[0]
	ranked := Rank(key, c.NodeNames())
	dead, second := ranked[0], ranked[1]
	c.KillNode(dead)

	for i := 1; i <= 3; i++ {
		body := fetchKey(t, c, key)
		if string(body) != string(originBody(key)) {
			t.Fatalf("failover body %q, want %q", body, originBody(key))
		}
	}
	if !c.Node(second).Store().Contains(key) {
		t.Fatalf("failover did not land on next-ranked node %s", second)
	}
	if got := c.met.reroutes.Value(); got != 3 {
		t.Fatalf("reroutes = %d, want 3", got)
	}
	// Three straight denials cross FailThreshold: the dead node is now
	// declared down and requests stop knocking.
	if got := c.Node(dead).met.denials.Value(); got != 3 {
		t.Fatalf("down_denials = %d, want 3", got)
	}
	if got := c.reg.Counter("cluster.health.down_transitions").Value(); got != 1 {
		t.Fatalf("down_transitions = %d, want 1", got)
	}
	if got := c.reg.Gauge("cluster.health." + dead + ".alive").Value(); got != 0 {
		t.Fatalf("alive gauge for %s = %d, want 0", dead, got)
	}
	fetchKey(t, c, key)
	if got := c.Node(dead).met.denials.Value(); got != 3 {
		t.Fatalf("declared-down node still receives requests: denials = %d", got)
	}
}

func TestKillDropsCacheAndRecoverComesBackCold(t *testing.T) {
	origin := &countingOrigin{}
	c, err := New(origin, WithNodes(1), WithClock(sim.NewClock(1)))
	if err != nil {
		t.Fatal(err)
	}
	key := serve.ChunkKey{Video: "vid", Quality: 1, Tile: 2, Index: 3}
	fetchKey(t, c, key)
	n := c.Node("edge-0")
	if !n.Store().Contains(key) {
		t.Fatal("warm key not cached")
	}
	c.KillNode("edge-0")
	if !n.Down() {
		t.Fatal("KillNode did not crash the node")
	}
	c.RecoverNode("edge-0")
	if n.Down() {
		t.Fatal("RecoverNode did not restart the node")
	}
	if n.Store().Contains(key) {
		t.Fatal("restarted node kept its cache; a crashed process comes back cold")
	}
}

// TestKillDuringMissComesBackCold: a node killed while a miss waits on
// the origin comes back cold. The request is still served — in process
// by the miss itself; over a wire, where the kill closed its connection,
// by the origin fallback, one more origin fetch — but the miss's body
// lands in no cache, the store it opened under having crashed, and the
// next request for the key misses again.
func TestKillDuringMissComesBackCold(t *testing.T) {
	key := wireKeys(wireVideo())[0]
	for _, carrier := range []string{"in-process", "tcp"} {
		t.Run(carrier, func(t *testing.T) {
			origin := newBlockingOrigin(key)
			c := newCarrierCluster(t, carrier, origin, WithNodes(1), WithClock(sim.NewClock(1)))
			served := make(chan error, 1)
			go func() {
				_, err := c.Chunk(context.Background(), key.Video, key.Quality, key.Tile, key.Index, key.Layer)
				served <- err
			}()
			<-origin.arrived
			c.KillNode("edge-0")
			close(origin.release)
			if err := <-served; err != nil {
				t.Fatalf("the request whose miss spanned the kill failed: %v", err)
			}
			c.RecoverNode("edge-0")
			if st := c.Node("edge-0").Store(); st.Contains(key) || st.Len() != 0 || st.Bytes() != 0 {
				t.Fatalf("the recovered node holds %d bodies (%d bytes): the miss in flight at the kill was cached", st.Len(), st.Bytes())
			}
			fetchKey(t, c, key)
			want := 3
			if carrier == "in-process" {
				want = 2
			}
			if got := origin.count(); got != want {
				t.Fatalf("%d origin fetches, want %d: the request after recovery must miss", got, want)
			}
		})
	}
}

func TestProbesReadmitRecoveredNode(t *testing.T) {
	origin := &countingOrigin{}
	clock := sim.NewClock(1)
	c, err := New(origin, WithNodes(2), WithClock(clock),
		WithHealth(HealthConfig{FailThreshold: 3, ProbeSuccesses: 2, Cooldown: 500 * time.Millisecond}))
	if err != nil {
		t.Fatal(err)
	}
	c.KillNode("edge-1")
	// Three failed probe sweeps trip the detector.
	for i := 0; i < 3; i++ {
		c.ProbeAll()
	}
	if got := c.reg.Gauge("cluster.health.edge-1.alive").Value(); got != 0 {
		t.Fatalf("killed node still alive after 3 failed probes")
	}
	c.RecoverNode("edge-1")
	// Inside the cooldown the breaker admits nothing, recovered or not.
	c.ProbeAll()
	if got := c.reg.Gauge("cluster.health.edge-1.alive").Value(); got != 0 {
		t.Fatal("node re-admitted during cooldown")
	}
	clock.RunUntil(clock.Now() + time.Second)
	// Past the cooldown: ProbeSuccesses clean sweeps close the breaker.
	c.ProbeAll()
	if got := c.reg.Gauge("cluster.health.edge-1.alive").Value(); got != 0 {
		t.Fatal("one probe success re-admitted the node; want two")
	}
	c.ProbeAll()
	if got := c.reg.Gauge("cluster.health.edge-1.alive").Value(); got != 1 {
		t.Fatal("recovered node not re-admitted after two clean probes")
	}
	if got := c.reg.Counter("cluster.health.up_transitions").Value(); got != 1 {
		t.Fatalf("up_transitions = %d, want 1", got)
	}
}

// TestReaddedNameStartsAlive: the detector is the node's, so a name
// removed while held down and added again is a fresh node with a closed
// breaker — routed to at once, not after its predecessor's cooldown.
func TestReaddedNameStartsAlive(t *testing.T) {
	c, err := New(&countingOrigin{}, WithNodes(2), WithClock(sim.NewClock(1)))
	if err != nil {
		t.Fatal(err)
	}
	c.KillNode("edge-1")
	for i := 0; i < 3; i++ {
		c.ProbeAll()
	}
	if got := c.reg.Gauge("cluster.health.edge-1.alive").Value(); got != 0 {
		t.Fatal("killed node still alive after 3 failed probes")
	}
	if err := c.RemoveNode("edge-1"); err != nil {
		t.Fatal(err)
	}
	readded, err := c.AddNode("edge-1")
	if err != nil {
		t.Fatal(err)
	}
	if got := c.reg.Gauge("cluster.health.edge-1.alive").Value(); got != 1 {
		t.Fatal("re-added name inherited its predecessor's open breaker")
	}
	keys := testKeys(60)
	i := slices.IndexFunc(keys, func(k serve.ChunkKey) bool { return Rank(k, c.NodeNames())[0] == "edge-1" })
	fetchKey(t, c, keys[i])
	if readded.Requests() != 1 || c.met.reroutes.Value() != 0 {
		t.Fatalf("first request for a key of the re-added node: node requests %d, reroutes %d; want 1, 0",
			readded.Requests(), c.met.reroutes.Value())
	}
}

// TestRemovedNodeRefusesStaleSnapshot: a request that loaded the
// membership before RemoveNode still holds the removed node. That node
// refuses it and ignores its outcome, so a stale walk can neither reach
// a retired edge nor move the instruments a successor of the same name
// now owns.
func TestRemovedNodeRefusesStaleSnapshot(t *testing.T) {
	c, err := New(&countingOrigin{}, WithNodes(2), WithClock(sim.NewClock(1)))
	if err != nil {
		t.Fatal(err)
	}
	stale := c.mem.Load().byID["edge-1"]
	if err := c.RemoveNode("edge-1"); err != nil {
		t.Fatal(err)
	}
	alive := c.reg.Gauge("cluster.health.edge-1.alive")
	failStale := func() {
		for i := 0; i < 3; i++ {
			if stale.health.allow() {
				t.Fatal("removed node admitted a request from a stale snapshot")
			}
			stale.health.observe(ErrNodeDown)
		}
	}
	failStale()
	if alive.Value() != 0 {
		t.Fatal("removed node's alive gauge is not 0")
	}
	if _, err := c.AddNode("edge-1"); err != nil {
		t.Fatal(err)
	}
	failStale()
	if alive.Value() != 1 {
		t.Fatal("outcomes reported to the removed node took its successor down")
	}
	if got := c.reg.Counter("cluster.health.down_transitions").Value(); got != 0 {
		t.Fatalf("down_transitions = %d, want 0", got)
	}
}

func TestConfigRequiresOrigin(t *testing.T) {
	if _, err := New(nil, WithNodes(3)); err == nil {
		t.Fatal("New accepted a nil origin")
	}
	if _, err := New(&countingOrigin{}, WithWire(true)); err == nil {
		t.Fatal("New accepted a wire form without a catalog")
	}
}

func TestCanceledContextDoesNotPunishNode(t *testing.T) {
	origin := originFunc(func(ctx context.Context, key serve.ChunkKey) ([]byte, error) {
		return nil, ctx.Err()
	})
	c, err := New(origin, WithNodes(1), WithClock(sim.NewClock(1)))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for i := 0; i < 5; i++ {
		if _, err := c.Chunk(ctx, "vid", 0, 0, i, false); err == nil {
			t.Fatal("canceled fetch succeeded")
		}
	}
	// Five canceled calls must not trip the caller's favorite node.
	if got := c.reg.Gauge("cluster.health.edge-0.alive").Value(); got != 1 {
		t.Fatal("canceled requests were counted as node failures")
	}
}

// TestCanceledViewerAbortsOriginFetch is the ctx-drop regression for
// the node miss path: a node's origin pull now rides the store's
// per-flight context, which is canceled when the last interested
// viewer departs. Before the fix the pull ran on context.Background,
// so this origin — which blocks until it observes cancellation —
// would have hung forever.
func TestCanceledViewerAbortsOriginFetch(t *testing.T) {
	entered := make(chan struct{})
	aborted := make(chan error, 1)
	origin := originFunc(func(ctx context.Context, key serve.ChunkKey) ([]byte, error) {
		close(entered)
		<-ctx.Done()
		aborted <- ctx.Err()
		return nil, ctx.Err()
	})
	c, err := New(origin, WithNodes(3), WithClock(sim.NewClock(1)))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := c.Chunk(ctx, "vid", 1, 2, 3, false)
		done <- err
	}()
	<-entered
	cancel()
	select {
	case err := <-aborted:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("origin context ended with %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("origin fetch never observed the viewer's cancellation")
	}
	if err := <-done; !errors.Is(err, context.Canceled) {
		t.Fatalf("Chunk returned %v, want context.Canceled", err)
	}
}

// TestCanceledViewerDoesNotPoisonSharedFlight: when two viewers share
// one cold fetch, the first one leaving must not break the second —
// the flight is canceled only when the last viewer departs.
func TestCanceledViewerDoesNotPoisonSharedFlight(t *testing.T) {
	entered := make(chan struct{})
	release := make(chan struct{})
	origin := originFunc(func(ctx context.Context, key serve.ChunkKey) ([]byte, error) {
		close(entered)
		select {
		case <-ctx.Done():
			return nil, ctx.Err()
		case <-release:
			return originBody(key), nil
		}
	})
	c, err := New(origin, WithNodes(3), WithClock(sim.NewClock(1)))
	if err != nil {
		t.Fatal(err)
	}
	want := serve.ChunkKey{Video: "vid", Quality: 1, Tile: 2, Index: 3}
	stayDone := make(chan error, 1)
	var stayBody []byte
	go func() {
		b, err := c.Chunk(context.Background(), want.Video, want.Quality, want.Tile, want.Index, want.Layer)
		stayBody = b
		stayDone <- err
	}()
	<-entered
	leaveCtx, cancelLeave := context.WithCancel(context.Background())
	leaveDone := make(chan error, 1)
	go func() {
		_, err := c.Chunk(leaveCtx, want.Video, want.Quality, want.Tile, want.Index, want.Layer)
		leaveDone <- err
	}()
	cancelLeave()
	if err := <-leaveDone; !errors.Is(err, context.Canceled) {
		t.Fatalf("leaving viewer got %v, want context.Canceled", err)
	}
	close(release)
	if err := <-stayDone; err != nil {
		t.Fatalf("staying viewer got %v — a peer's cancellation poisoned the shared flight", err)
	}
	if string(stayBody) != string(originBody(want)) {
		t.Fatalf("staying viewer got %q, want %q", stayBody, originBody(want))
	}
}
