package cluster

import (
	"net/http"

	"sperke/internal/dash"
	"sperke/internal/obs"
)

// config is the resolved construction state every option writes into.
// The cluster keeps it after New so AddNode can build later members
// from the same recipe.
type config struct {
	nodes       int
	replication int
	catalog     *dash.Catalog
	nodeBudget  int64
	nodeShards  int
	detector    HealthConfig
	clock       obs.Clock
	obs         *obs.Registry
	net         network                  // the wire's carrier; nil: in-process edges
	edge        func(*Node) http.Handler // what each edge loop answers with; nil: the node's dash.Server

	// maxInFlight bounds concurrent admitted requests per edge; beyond
	// it the edge sheds with 503+Retry-After. warmQueueCap bounds the
	// background warm queue (replication writes and pre-warms); when it
	// is full the oldest queued warm is dropped and counted under
	// cluster.warm_drops, so warming degrades under pressure instead of
	// the serving path slowing down. Neither has an option.
	maxInFlight  int
	warmQueueCap int

	prior         TilePrior
	prewarmFanout int
}

func defaultClusterConfig() config {
	return config{
		nodes:        3,
		replication:  1,
		nodeBudget:   64 << 20,
		nodeShards:   8,
		maxInFlight:  256,
		warmQueueCap: 256,
	}
}

// TilePrior ranks tiles by crowd viewing probability at a chunk index
// — the seam WithPrewarm consumes. hmp.Heatmap satisfies it (chunk
// index and heatmap interval are the same axis); any other popularity
// source that can answer "which tiles will viewers at this playhead
// want" plugs in the same way.
type TilePrior interface {
	// TopTilesAt returns up to k tile IDs for chunk interval index,
	// most-viewed first, deterministically ordered.
	TopTilesAt(index, k int) []int
}

// Option configures a Cluster built by New; sizing options treat
// non-positive values as "keep the default".
type Option func(*config)

// WithNodes sets the initial edge count ("edge-0" … "edge-N-1");
// values <= 0 keep the default of 3.
func WithNodes(n int) Option {
	return func(c *config) {
		if n > 0 {
			c.nodes = n
		}
	}
}

// WithReplication sets R, the number of rendezvous owners per key.
// Every served body is written through to the key's other live owners,
// so killing any one owner leaves a warm copy behind and costs zero
// incremental origin fetches. Values <= 0 keep the default of 1 (no
// replication); R larger than the membership clamps per key.
func WithReplication(r int) Option {
	return func(c *config) {
		if r > 0 {
			c.replication = r
		}
	}
}

// WithCatalog gives every node (and the front door) its own
// dash.Server so the cluster can be driven over HTTP. Required for the
// wire forms.
func WithCatalog(cat *dash.Catalog) Option {
	return func(c *config) { c.catalog = cat }
}

// WithNodeBudget caps each edge cache in bytes; values <= 0 keep the
// default of 64 MiB.
func WithNodeBudget(b int64) Option {
	return func(c *config) {
		if b > 0 {
			c.nodeBudget = b
		}
	}
}

// WithNodeShards sets each edge store's shard count; values <= 0 keep
// the default of 8.
func WithNodeShards(n int) Option {
	return func(c *config) {
		if n > 0 {
			c.nodeShards = n
		}
	}
}

// WithHealth tunes the failure detector (see HealthConfig).
func WithHealth(h HealthConfig) Option {
	return func(c *config) { c.detector = h }
}

// WithClock drives breaker cooldowns and probe pacing: *sim.Clock for
// deterministic tests, nil for a fresh obs.NewWall().
func WithClock(clk obs.Clock) Option {
	return func(c *config) { c.clock = clk }
}

// WithObs receives cluster.* instruments; nil creates a private
// registry.
func WithObs(r *obs.Registry) Option {
	return func(c *config) { c.obs = r }
}

// WithWire(true) puts the cluster over the wire: every node serves its
// dash.Server on a loopback TCP listener with its own connection loop
// (edgeServer) and the router reaches it over a keep-alive pool of its
// own (hopTransport) — so node death is an actual connection refusal,
// recovery is a re-bind, and re-routed responses proxy as streams.
// Requires WithCatalog.
func WithWire(on bool) Option {
	return func(c *config) {
		switch {
		case !on:
			c.net = nil
		case c.net == nil:
			c.net = tcpNetwork{}
		}
	}
}

// WithLoopback is the wire form without sockets: the same edge loop and
// hop, with each node listening on an in-memory network whose dials are
// net.Pipe connections — a killed or removed node refuses them with
// ECONNREFUSED, deterministically and with no port taken. Implies
// WithWire.
func WithLoopback() Option {
	return func(c *config) { c.net = newMemNetwork() }
}

// WithTransport is WithLoopback with rt behind every edge: each request
// a node's edge loop reads goes out through rt, addressed to the node's
// BaseURL, and rt's answer is the edge's — for a harness that serves the
// nodes' handlers itself, behind its own decorators. A killed node still
// refuses the dial. A nil rt changes nothing.
func WithTransport(rt http.RoundTripper) Option {
	return func(c *config) {
		if rt != nil {
			c.net = newMemNetwork()
			c.edge = func(n *Node) http.Handler { return forwardTo(rt, n.addr) }
		}
	}
}

// WithPrewarm enables playhead-correlated cache warming: every chunk
// the cluster serves enqueues warm candidates for the fanout
// most-probable other tiles at the same chunk index per the crowd
// prior, so the next viewer at that playhead finds its FoV already at
// the edge (§3.2's cross-user correlation, applied to the cache tier).
// Pre-warm syntheses run on the background warm worker and count under
// cluster.prewarm_fetches, never under cluster.origin_fetches — the
// offload ratio keeps meaning "viewers served without waiting on the
// origin". A nil prior or fanout <= 0 leaves pre-warming off.
func WithPrewarm(prior TilePrior, fanout int) Option {
	return func(c *config) {
		if prior != nil && fanout > 0 {
			c.prior = prior
			c.prewarmFanout = fanout
		}
	}
}
