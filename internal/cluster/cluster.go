// Package cluster runs N edge nodes — each a serve.Store + dash.Server
// pair — in front of one origin ChunkSource, with chunk keys routed by
// rendezvous hashing so membership changes move only the resharded
// keys. In the wire forms (WithWire / WithTransport) every node is a
// real HTTP process: its dash.Server on a loopback TCP listener that
// the router reaches over a keep-alive hop of its own, so node death is
// an actual connection refusal and re-routed responses proxy
// writer-first, never materialized at the router. Every request,
// whichever form and whichever front-door method it came through, takes
// the one path route → walk → relay → originFallback. Each node's failure detector
// combines periodic probes with passive per-request error accounting to
// declare it down and up, failing requests over to the next-ranked live
// edge and, when no edge can serve, to the origin. With replication R>1
// every key has R rendezvous owners and served bodies are written
// through to the other live owners, so killing any one owner costs zero
// incremental origin fetches. Each edge bounds its in-flight work and sheds the excess
// with 503+Retry-After rather than queueing into collapse; shed
// requests go straight to the origin instead of the next edge, so one
// hot node's overflow cannot cascade through its peers. Membership is
// live — AddNode/RemoveNode under load — and node crashes and
// recoveries can be scripted through faults.Plan node-outage events
// (a Cluster is the target faults.Plan.ApplyNodes drives).
package cluster

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"sperke/internal/dash"
	"sperke/internal/obs"
	"sperke/internal/serve"
)

// clusterMetrics caches the router's own instruments.
type clusterMetrics struct {
	requests        *obs.Counter // front-door chunk requests
	reroutes        *obs.Counter // served by a non-primary edge
	sheds           *obs.Counter // refused by an edge's admission guard
	warms           *obs.Counter // replication writes into co-owner caches
	originFallbacks *obs.Counter // requests no edge served
	originFetches   *obs.Counter // origin syntheses a viewer waited on (fallbacks + edge misses)
	originErrors    *obs.Counter // origin fallbacks that failed (not counted as fetches)

	coalesced      *obs.Counter // requests served from another request's in-flight body
	warmDrops      *obs.Counter // pre-warms dropped by the bounded queue
	prewarms       *obs.Counter // crowd-prior bodies written into edge caches
	prewarmFetches *obs.Counter // origin syntheses performed speculatively by the pre-warmer
}

// membership is one immutable snapshot of the routing table. Routing
// loads it once per request; AddNode/RemoveNode publish a new snapshot
// under memMu — readers never block on membership changes.
type membership struct {
	ids  []string
	byID map[string]*Node
}

func (m *membership) with(n *Node) *membership {
	next := &membership{
		ids:  make([]string, 0, len(m.ids)+1),
		byID: make(map[string]*Node, len(m.ids)+1),
	}
	next.ids = append(next.ids, m.ids...)
	next.ids = append(next.ids, n.id)
	for id, node := range m.byID {
		next.byID[id] = node
	}
	next.byID[n.id] = n
	return next
}

func (m *membership) without(name string) *membership {
	next := &membership{
		ids:  make([]string, 0, len(m.ids)),
		byID: make(map[string]*Node, len(m.ids)),
	}
	for _, id := range m.ids {
		if id == name {
			continue
		}
		next.ids = append(next.ids, id)
		next.byID[id] = m.byID[id]
	}
	return next
}

// Cluster is the router: it ranks edges per key, skips the ones the
// health layer has declared down, warms the key's co-owners when R>1,
// and falls back to the origin when no edge answers. It implements
// dash.ChunkSource and dash.ChunkStreamer (the front door), and it is
// a target for faults.Plan.ApplyNodes (scripted outages).
type Cluster struct {
	origin dash.ChunkSource
	pull   pullFunc // the origin read of a body an edge keeps
	front  *dash.Server
	cfg    config

	mem    atomic.Pointer[membership]
	memMu  sync.Mutex // serializes membership writers; readers use mem
	closed bool       // set by Close, under memMu; AddNode refuses after it
	nextID atomic.Int64

	probeEvery time.Duration
	clock      obs.Clock

	met clusterMetrics
	reg *obs.Registry

	coal  *coalescer // router-level singleflight
	warmQ *warmQueue // background pre-warm queue
}

// New builds a cluster of WithNodes edges named "edge-0" … "edge-N-1"
// around the required origin. With no options it is three in-process
// edges; WithWire/WithTransport put each edge behind its own HTTP
// listener and WithReplication(R) gives every key R owners.
func New(origin dash.ChunkSource, opts ...Option) (*Cluster, error) {
	if origin == nil {
		return nil, errors.New("cluster: origin is required")
	}
	cfg := defaultClusterConfig()
	for _, opt := range opts {
		opt(&cfg)
	}
	if cfg.net != nil && cfg.catalog == nil {
		return nil, errors.New("cluster: the wire forms need a catalog (WithCatalog) — each node serves chunks through its own dash.Server")
	}
	cfg.detector = cfg.detector.withDefaults()
	if cfg.clock == nil {
		cfg.clock = obs.NewWall()
	}
	if cfg.obs == nil {
		cfg.obs = obs.NewRegistry()
	}
	c := &Cluster{
		origin:     origin,
		pull:       pullFrom(origin),
		cfg:        cfg,
		probeEvery: cfg.detector.ProbeInterval,
		clock:      cfg.clock,
		reg:        cfg.obs,
		met: clusterMetrics{
			requests:        cfg.obs.Counter("cluster.requests"),
			reroutes:        cfg.obs.Counter("cluster.reroutes"),
			sheds:           cfg.obs.Counter("cluster.sheds"),
			warms:           cfg.obs.Counter("cluster.warms"),
			originFallbacks: cfg.obs.Counter("cluster.origin_fallbacks"),
			originFetches:   cfg.obs.Counter("cluster.origin_fetches"),
			originErrors:    cfg.obs.Counter("cluster.origin_errors"),

			coalesced:      cfg.obs.Counter("cluster.coalesced"),
			warmDrops:      cfg.obs.Counter("cluster.warm_drops"),
			prewarms:       cfg.obs.Counter("cluster.prewarms"),
			prewarmFetches: cfg.obs.Counter("cluster.prewarm_fetches"),
		},
		coal:  newCoalescer(),
		warmQ: newWarmQueue(),
	}
	m := &membership{byID: make(map[string]*Node, cfg.nodes)}
	for i := 0; i < cfg.nodes; i++ {
		id := fmt.Sprintf("edge-%d", c.nextID.Add(1)-1)
		n, err := c.buildNode(id)
		if err != nil {
			for _, prev := range m.byID {
				prev.retire()
			}
			return nil, err
		}
		m.ids = append(m.ids, id)
		m.byID[id] = n
	}
	for _, n := range m.byID {
		n.join()
	}
	c.mem.Store(m)
	if cfg.catalog != nil {
		c.front = dash.NewServer(cfg.catalog, dash.WithObs(cfg.obs), dash.WithStore(c))
	}
	return c, nil
}

// buildNode constructs (and in the wire forms, starts) one edge. No
// cluster lock is held — listeners come up before the node is
// published to the routing table — and nothing another node of the same
// name shares is written: a node that loses the race for its name is
// retired without the winner noticing.
func (c *Cluster) buildNode(id string) (*Node, error) {
	n := newNode(id, c.pull, c.cfg.catalog, c.cfg.nodeShards,
		c.cfg.nodeBudget, c.cfg.maxInFlight, c.reg, c.met.originFetches.Inc)
	n.health = newHealth(id, c.cfg.detector, c.clock, c.reg)
	if c.cfg.net != nil {
		if err := n.startWire(c.cfg.net, c.cfg.edge); err != nil {
			return nil, err
		}
	}
	return n, nil
}

// AddNode grows the cluster by one edge while it serves. The node is
// fully built — listener bound and accepting in the wire forms —
// before it enters the routing table, so the first request rendezvous
// hands it finds a live process. An empty name auto-assigns the next
// "edge-N". The new node starts cold: rendezvous moves exactly the
// keys whose ownership reshards onto it, and every other key keeps its
// champion. A closed cluster refuses.
func (c *Cluster) AddNode(name string) (*Node, error) {
	if name == "" {
		name = fmt.Sprintf("edge-%d", c.nextID.Add(1)-1)
	}
	if m := c.mem.Load(); m.byID[name] != nil {
		return nil, fmt.Errorf("cluster: node %q already exists", name)
	}
	n, err := c.buildNode(name)
	if err != nil {
		return nil, err
	}
	c.memMu.Lock()
	cur := c.mem.Load()
	switch {
	case c.closed:
		err = errors.New("cluster: AddNode after Close")
	case cur.byID[name] != nil:
		err = fmt.Errorf("cluster: node %q already exists", name)
	}
	if err != nil {
		c.memMu.Unlock()
		n.retire()
		return nil, err
	}
	n.join()
	c.mem.Store(cur.with(n))
	c.memMu.Unlock()
	return n, nil
}

// RemoveNode drains one edge out of the routing table and stops it
// (its listener closes in the wire forms). Keys it owned rendezvous to
// the survivors; with replication the next-ranked owner already holds
// the warmed copies, so removal costs no origin refetch for warm keys.
// Requests already routed to the node finish against its closing
// process and fail over normally.
func (c *Cluster) RemoveNode(name string) error {
	c.memMu.Lock()
	cur := c.mem.Load()
	n := cur.byID[name]
	if n == nil {
		c.memMu.Unlock()
		return fmt.Errorf("cluster: no node %q", name)
	}
	n.leave()
	c.mem.Store(cur.without(name))
	c.memMu.Unlock()
	n.retire()
	return nil
}

// Close stops the pre-warm worker and retires every member, closing
// its listener and the router's connections to it. Queued pre-warms are
// abandoned — Close is the cluster's teardown, and a warm that never
// lands only costs a future cache miss. Idempotent; AddNode refuses
// after it.
func (c *Cluster) Close() {
	c.memMu.Lock()
	if c.closed {
		c.memMu.Unlock()
		return
	}
	c.closed = true
	c.memMu.Unlock()
	c.warmQ.close()
	for _, n := range c.Nodes() {
		n.retire()
	}
}

// Replication reports R, the configured owners per key.
func (c *Cluster) Replication() int { return c.cfg.replication }

// Wire reports whether the cluster's edges are HTTP processes reached
// over the wire.
func (c *Cluster) Wire() bool { return c.cfg.net != nil }

// Chunk implements dash.ChunkSource: the request path with no writer,
// so the served body comes back whole. In either form it is shared —
// the serving edge's cached slice, or the origin's — and read-only, under
// serve.Store.Get's contract.
func (c *Cluster) Chunk(ctx context.Context, videoID string, quality, tile, index int, layer bool) ([]byte, error) {
	_, body, err := c.route(ctx, nil, serve.ChunkKey{Video: videoID, Quality: quality, Tile: tile, Index: index, Layer: layer})
	return body, err
}

// StreamChunk implements dash.ChunkStreamer: the same request path
// with the caller's ResponseWriter as the sink, so a wire edge's body
// is relayed as it arrives and never held whole at the router unless
// replication needs it and the edge holds no copy of its own.
func (c *Cluster) StreamChunk(ctx context.Context, w http.ResponseWriter, videoID string, quality, tile, index int, layer bool) (int64, error) {
	n, _, err := c.route(ctx, w, serve.ChunkKey{Video: videoID, Quality: quality, Tile: tile, Index: index, Layer: layer})
	return n, err
}

// route is the one entry every chunk request takes: request accounting,
// then the coalescing role switch. w is where the body goes — nil
// materializes it for the caller, non-nil streams it there — and is the
// only thing the two front-door methods differ in. A request arriving
// while the same key is already being fetched follows that flight
// instead of walking; a leader failure, which includes the leader's
// caller canceling, must not poison the herd, so a follower of a failed
// or body-less flight walks on its own (the edge stores' singleflight
// still keeps that cheap). It returns the bytes written to w and the
// whole body when the path needed one.
func (c *Cluster) route(ctx context.Context, w http.ResponseWriter, key serve.ChunkKey) (n int64, body []byte, err error) {
	c.met.requests.Inc()
	f, lead := c.coal.enter(key)
	if lead {
		defer func() { c.coal.finish(key, f, nil, err) }()
		return c.walk(ctx, w, key, f)
	}
	select {
	case <-ctx.Done():
		return 0, nil, ctx.Err()
	case <-f.done:
	}
	if f.err != nil || f.body == nil {
		return c.walk(ctx, w, key, nil)
	}
	c.met.coalesced.Inc()
	n, err = deliver(w, f.body)
	return n, f.body, err
}

// walk is the ranked walk: try the key's rendezvous-ranked edges in
// order, skipping nodes the health layer holds down, then fall back to
// the origin. An edge error feeds the passive side of the failure
// detector and moves on to the next-ranked edge; an edge shed breaks
// straight to the origin — the other edges are not this key's owners
// and pushing overflow at them just spreads the overload. A served body
// is written through to the key's other live cold owners, on this
// goroutine, when replication is on: the edge's own body as soon as
// open returns it, a copy the relay kept once the relay ends. The sink
// decides two things here: once body bytes are on w the response
// cannot be repaired, so a failure then aborts instead of failing over;
// and a failed write to w is the viewer's, so it ends the walk without
// charging the edge. fl is the caller's coalescing flight when it leads
// one: the walk publishes it as soon as an edge has answered — with the
// edge's whole body, or none when a wire edge holds no copy — before
// any byte goes to w.
func (c *Cluster) walk(ctx context.Context, w http.ResponseWriter, key serve.ChunkKey, fl *routeFlight) (int64, []byte, error) {
	m := c.mem.Load()
	var buf [rankBuf]rankedNode
	ranked := rankInto(buf[:0], key, m.ids)
	owners := ranked[:min(c.cfg.replication, len(ranked))]
	for rank, r := range ranked {
		id := r.id
		edge := m.byID[id]
		if !edge.health.allow() {
			continue
		}
		var n int64
		var targets []*Node
		st, body, err := edge.open(ctx, key)
		if err == nil {
			targets = coldOwners(m, owners, id, key)
			if body != nil {
				// The edge's own body is whole: warm the co-owners before
				// the flight closes, so a pre-warm that sees it closed
				// finds them warm.
				c.warm(key, body, targets)
				targets = nil
			}
			c.coal.finish(key, fl, body, nil)
			if st.body == nil {
				// An in-process edge answered with its store's own body.
				n, err = deliver(w, body)
			} else {
				n, body, err = relay(w, st, body, len(targets) > 0, key)
			}
		}
		if err == nil {
			edge.health.observe(nil)
			if rank > 0 {
				c.met.reroutes.Inc()
			}
			// The relay's kept copy, when the edge held none.
			c.warm(key, body, targets)
			c.enqueuePrewarms(key)
			return n, body, nil
		}
		if ctx.Err() != nil || errors.Is(err, dash.ErrViewerGone) {
			// The caller left, or its writer broke; don't punish the node
			// for it, and don't fetch a body nobody can take.
			return n, nil, err
		}
		if isShed(err) {
			c.met.sheds.Inc()
			break
		}
		edge.health.observe(err)
		if w != nil && n > 0 {
			return n, nil, err
		}
	}
	return c.originFallback(ctx, w, key, fl)
}

// warm writes a served body through to the key's cold co-owners.
func (c *Cluster) warm(key serve.ChunkKey, body []byte, targets []*Node) {
	for _, t := range targets {
		if t.warm(key, body) {
			c.met.warms.Inc()
		}
	}
}

// enqueuePrewarms queues crowd-prior warm candidates for the other
// tiles viewers at this playhead are most likely to request next — the
// cache-tier application of §3.2's cross-user FoV correlation. A
// candidate already queued is skipped; residency and ownership are
// re-checked by the worker at execution time.
func (c *Cluster) enqueuePrewarms(key serve.ChunkKey) {
	if c.cfg.prior == nil {
		return
	}
	for _, tile := range c.cfg.prior.TopTilesAt(key.Index, c.cfg.prewarmFanout) {
		if tile == key.Tile {
			continue
		}
		pk := key
		pk.Tile = tile
		if !c.warmQ.markPending(pk) {
			continue
		}
		c.enqueueWarm(pk)
	}
}

// isShed reports an admission guard's refusal: a KindOverload
// *dash.Error, whether the edge is in process or over the wire.
func isShed(err error) bool {
	var de *dash.Error
	return errors.As(err, &de) && de.Kind == dash.KindOverload
}

// coldOwners returns the key's owners that are alive and cold — the
// replicas a body should be written through to — leaving out served,
// the owner a walk just got the body from ("" for a pre-warm, which no
// edge served). The health check is the non-consuming one: a warm
// decision must not eat a half-open breaker's trial admission.
func coldOwners(m *membership, owners []rankedNode, served string, key serve.ChunkKey) []*Node {
	var targets []*Node
	for _, o := range owners {
		n := m.byID[o.id]
		if o.id == served || n.Down() || !n.health.healthy() || n.store.Contains(key) {
			continue
		}
		targets = append(targets, n)
	}
	return targets
}

// OffloadCounts returns the cumulative front-door request and origin
// fetch counters: the edge tier absorbed (requests − originFetches) /
// requests of the load, cumulatively or over a window between two
// snapshots.
func (c *Cluster) OffloadCounts() (requests, originFetches int64) {
	return c.met.requests.Value(), c.met.originFetches.Value()
}

// OffloadPercent is the cumulative offload OffloadCounts implies, as a
// percent truncated to whole basis points (0 before any request).
func (c *Cluster) OffloadPercent() float64 {
	req, fetches := c.OffloadCounts()
	if req <= 0 {
		return 0
	}
	return float64(max(0, (req-fetches)*10000/req)) / 100
}

// Warms reports the cumulative replication writes into co-owner
// caches. Each is applied before the request that served its body
// returns, so the count is exact without a fence.
func (c *Cluster) Warms() int64 { return c.met.warms.Value() }

// Coalesced reports requests served from another request's in-flight
// body by the router-level singleflight.
func (c *Cluster) Coalesced() int64 { return c.met.coalesced.Value() }

// WarmDrops reports pre-warms the bounded queue discarded under
// pressure.
func (c *Cluster) WarmDrops() int64 { return c.met.warmDrops.Value() }

// Prewarms reports crowd-prior bodies written into edge caches.
func (c *Cluster) Prewarms() int64 { return c.met.prewarms.Value() }

// PrewarmFetches reports origin syntheses performed speculatively by
// the pre-warmer — kept apart from cluster.origin_fetches so the
// offload ratio keeps meaning "viewers served without waiting on the
// origin" while total origin load stays visible.
func (c *Cluster) PrewarmFetches() int64 { return c.met.prewarmFetches.Value() }

// ProbeAll runs one active probe sweep: every node the detector lets
// through gets a ping — a real GET /v in the wire forms — and the
// outcome feeds the same breakers as passive traffic. Each probe has one
// ProbeInterval to answer, so an edge that accepts and never answers
// costs the sweep that long and counts as a failure. Down nodes in
// cooldown are skipped; once the cooldown passes the breaker admits
// trial probes, and ProbeSuccesses clean ones in a row re-admit the
// node.
func (c *Cluster) ProbeAll() {
	m := c.mem.Load()
	for _, id := range m.ids {
		if n := m.byID[id]; n.health.allow() {
			// Probes belong to no request, so there is nothing to inherit
			// from; the bound keeps one edge that accepts and never
			// answers from stalling a sweep longer than the pause between
			// sweeps (TestProbeOfWedgedEdgeIsBounded).
			ctx, cancel := context.WithTimeout(context.Background(), c.probeEvery)
			n.health.observe(n.ping(ctx))
			cancel()
		}
	}
}

// StartProbes runs ProbeAll every Health.ProbeInterval until ctx is
// done. It paces itself on the wall clock; deterministic tests call
// ProbeAll directly from sim-clock callbacks instead.
func (c *Cluster) StartProbes(ctx context.Context) {
	go func() {
		for {
			if err := wallSleep(ctx, c.probeEvery); err != nil {
				return
			}
			c.ProbeAll()
		}
	}()
}

// wallSleep blocks for d or until ctx is done. This is the cluster's
// one real-time wait — probe pacing is inherently wall-clock. Health
// runs on the injected clock, which TestClusterMatchesModel and
// TestClusterFailoverDeterministic pin.
func wallSleep(ctx context.Context, d time.Duration) error {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}

// NodeNames lists the member nodes, for faults.Plan.ApplyNodes.
func (c *Cluster) NodeNames() []string {
	m := c.mem.Load()
	out := make([]string, len(m.ids))
	copy(out, m.ids)
	return out
}

// KillNode is the outage faults.Plan.ApplyNodes arms: crash the named
// node (cache dropped, listener closed, every request denied) until
// RecoverNode. Unknown names are ignored so wildcard plans stay
// forgiving.
func (c *Cluster) KillNode(name string) {
	if n := c.mem.Load().byID[name]; n != nil {
		n.kill()
	}
}

// RecoverNode is the recovery faults.Plan.ApplyNodes arms: restart the
// named node cold. The health layer still holds it down until probes or
// traffic re-admit it.
func (c *Cluster) RecoverNode(name string) {
	if n := c.mem.Load().byID[name]; n != nil {
		n.recover()
	}
}

// Node returns the named edge, or nil.
func (c *Cluster) Node(id string) *Node { return c.mem.Load().byID[id] }

// Nodes returns the current members in join order.
func (c *Cluster) Nodes() []*Node {
	m := c.mem.Load()
	out := make([]*Node, 0, len(m.ids))
	for _, id := range m.ids {
		out = append(out, m.byID[id])
	}
	return out
}

// FrontDoor returns the cluster's HTTP entry point: a dash.Server
// whose chunk source is the router, so every request flows through
// rendezvous routing, health checks and failover — and, in the wire
// forms, streams proxied edge bodies writer-first. Nil without a
// catalog.
func (c *Cluster) FrontDoor() http.Handler {
	if c.front == nil {
		return nil
	}
	return c.front
}
