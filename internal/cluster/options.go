package cluster

import (
	"net/http"
	"time"

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
	maxInFlight int
	retryAfter  time.Duration
	health      HealthConfig
	clock       obs.Clock
	obs         *obs.Registry
	wire        bool
	loopback    bool
	transport   http.RoundTripper
	nodeRetry   dash.RetryPolicy

	coalesce      bool
	warmQueueCap  int
	prior         TilePrior
	prewarmFanout int
}

func defaultClusterConfig() config {
	return config{
		nodes:       3,
		replication: 1,
		nodeBudget:  64 << 20,
		nodeShards:  8,
		maxInFlight: 256,
		retryAfter:  time.Second,
		// Failover is the retry: the router's per-edge clients take one
		// shot and let the ranked walk move on, so a dead edge costs one
		// connection refusal, not a backoff ladder.
		nodeRetry:    dash.RetryPolicy{MaxAttempts: -1},
		coalesce:     true,
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

// Option configures a Cluster built by New. Nil options are ignored;
// sizing options treat non-positive values as "keep the default".
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

// WithMaxInFlight bounds concurrent admitted requests per edge; beyond
// it the edge sheds with 503+Retry-After. Values <= 0 keep the default
// of 256.
func WithMaxInFlight(n int) Option {
	return func(c *config) {
		if n > 0 {
			c.maxInFlight = n
		}
	}
}

// WithRetryAfter sets the backoff hint attached to sheds; values <= 0
// keep the default of 1s.
func WithRetryAfter(d time.Duration) Option {
	return func(c *config) {
		if d > 0 {
			c.retryAfter = d
		}
	}
}

// WithHealth tunes the failure detector (see HealthConfig).
func WithHealth(h HealthConfig) Option {
	return func(c *config) { c.health = h }
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

// WithWire(true) puts the cluster over the wire: every node binds its
// dash.Server to a real loopback listener and the router reaches it
// through dash.Client — so node death is an actual connection refusal,
// recovery is a re-bind, and re-routed responses proxy as streams.
// Requires WithCatalog.
func WithWire(on bool) Option {
	return func(c *config) { c.wire = on }
}

// WithLoopback is the wire form without sockets: node clients speak
// HTTP through an in-process LoopbackTransport that preserves
// streaming and connection-refused semantics deterministically — what
// the wire chaos tests and benchmarks run on. Implies WithWire.
func WithLoopback() Option {
	return func(c *config) {
		c.wire = true
		c.loopback = true
	}
}

// WithTransport overrides the RoundTripper the router's per-node
// clients ride (node hosts become synthetic names), for fault-wrapped
// or recording transports in tests. A killed node behind a custom
// transport still answers — as a 503 from its down handler — rather
// than refusing the dial; use WithWire or WithLoopback when the
// listener lifecycle itself is under test. Implies WithWire.
func WithTransport(rt http.RoundTripper) Option {
	return func(c *config) {
		if rt != nil {
			c.wire = true
			c.transport = rt
		}
	}
}

// WithCoalescing turns the router-level singleflight on or off. On by
// default: concurrent cold requests for one key — even when the ranked
// walk would spread them across different edges, or push them onto the
// origin fallback — collapse into a single upstream fetch, with late
// arrivals served from the in-flight body (cluster.coalesced counts
// them). Off exists for measurement: the herd experiments quantify
// what coalescing saves by disabling it.
func WithCoalescing(on bool) Option {
	return func(c *config) { c.coalesce = on }
}

// WithWarmQueue bounds the background warm queue (replication writes
// and pre-warms). When full, the oldest queued warm is dropped and
// counted under cluster.warm_drops — warming degrades under pressure
// instead of the serving path slowing down. Values <= 0 keep the
// default of 256.
func WithWarmQueue(depth int) Option {
	return func(c *config) {
		if depth > 0 {
			c.warmQueueCap = depth
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

// WithNodeRetry overrides the retry policy of the router's per-node
// clients. The default is a single attempt — failover is the retry —
// so only set this when an edge's transient blips should be retried in
// place instead of rerouted.
func WithNodeRetry(p dash.RetryPolicy) Option {
	return func(c *config) { c.nodeRetry = p }
}
