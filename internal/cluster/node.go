package cluster

import (
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"sperke/internal/dash"
	"sperke/internal/obs"
	"sperke/internal/serve"
)

// ErrNodeDown is the in-process stand-in for connection-refused: the
// node crashed (KillNode / a faults node-outage event) and answers
// nothing until it recovers. It wraps dash.ErrUnavailable so a node
// served directly over HTTP maps it to 503. In the wire form the
// router does not see this error at all — it sees the actual refused
// connection from the node's closed listener.
var ErrNodeDown = fmt.Errorf("cluster: node down: %w", dash.ErrUnavailable)

// Node is one edge of the cluster: a serve.Store + dash.Server pair
// fronting the shared origin. The store gives the node its own LRU
// cache with singleflight miss coalescing — a re-routed cold herd for
// one key costs the origin one synthesis — and the admission guard
// bounds in-flight work, shedding the excess with 503+Retry-After so a
// cascade from a failed peer is shed, not amplified.
//
// In the wire form the node additionally owns a real HTTP process: its
// edge loop on a listener of the cluster's network, which the router
// reaches through the node's own hopTransport. kill closes the listener
// — requests meet an actual connection refusal — and recover re-binds
// the same address.
type Node struct {
	id     string
	store  *serve.Store
	server *dash.Server
	health *health // the router's failure detector for this edge

	down        atomic.Bool
	inflight    atomic.Int64
	maxInFlight int64

	// Wire lifecycle. addr is recorded at the first bind on net and
	// reused by recover so the node's identity (its address) survives a
	// crash; handler is what the edge loop answers with; rt holds the
	// current incarnation of the edge's server, swapped atomically so
	// kill never races a concurrent relisten. hop is the router's
	// connection pool to the edge, and makes one attempt: failover is the
	// retry, so a dead edge costs one connection refusal, not a backoff
	// ladder.
	net     network
	addr    string
	baseURL string
	handler http.Handler
	hop     *hopTransport
	rt      atomic.Pointer[edgeServer]

	met nodeMetrics
}

// shedRetryAfter is the backoff hint an edge attaches to a shed.
const shedRetryAfter = time.Second

// nodeMetrics caches the node's instruments; nil fields no-op.
type nodeMetrics struct {
	requests *obs.Counter // admitted chunk requests
	misses   *obs.Counter // cache misses = origin fetches from this node
	sheds    *obs.Counter // requests refused by the admission guard
	denials  *obs.Counter // requests refused because the node is down
	up       *obs.Gauge   // 1 while the node is a member and its process alive
}

// pullFunc reads a body from the origin for a caller that keeps it.
type pullFunc func(ctx context.Context, key serve.ChunkKey) ([]byte, error)

// puller is an origin that serves a body without caching it itself, as
// serve.Store.Pull does.
type puller interface {
	Pull(ctx context.Context, key serve.ChunkKey) ([]byte, error)
}

// pullFrom is how the edges' misses and the pre-warmer read the origin:
// the bodies they read go into edge caches, so an origin that can serve
// without admitting (a serve.Store) keeps no second copy of them, and
// any other answers through Chunk. The origin fallback keeps Chunk: a
// body no edge will hold stays cached at the origin.
func pullFrom(origin dash.ChunkSource) pullFunc {
	if p, ok := origin.(puller); ok {
		return p.Pull
	}
	return func(ctx context.Context, key serve.ChunkKey) ([]byte, error) {
		return origin.Chunk(ctx, key.Video, key.Quality, key.Tile, key.Index, key.Layer)
	}
}

// newNode wires one edge, whose misses read the origin through pull.
// onOriginFetch (may be nil) is called once per cache miss, before the
// origin synthesis runs — the cluster's origin-offload accounting hangs
// off it.
func newNode(id string, pull pullFunc, catalog *dash.Catalog,
	shards int, budget int64, maxInFlight int,
	reg *obs.Registry, onOriginFetch func()) *Node {
	n := &Node{
		id:          id,
		maxInFlight: int64(maxInFlight),
		met: nodeMetrics{
			requests: reg.Counter("cluster.node." + id + ".requests"),
			misses:   reg.Counter("cluster.node." + id + ".misses"),
			sheds:    reg.Counter("cluster.node." + id + ".sheds"),
			denials:  reg.Counter("cluster.node." + id + ".down_denials"),
			up:       reg.Gauge("cluster.node." + id + ".up"),
		},
	}
	// The miss path pulls from the origin for every caller sharing the
	// store's flight, and runs to completion whoever still waits: no
	// caller's context reaches it, so a body the origin was asked for is
	// cached here, not fetched again by the next viewer. A store origin
	// serves the pull without caching the body, so the edges that keep
	// it are its only holders.
	n.store = serve.New(serve.WithBodySynth(func(key serve.ChunkKey) ([]byte, error) {
		n.met.misses.Inc()
		if onOriginFetch != nil {
			onOriginFetch()
		}
		return pull(context.Background(), key)
	}), serve.WithShards(shards), serve.WithBudget(budget))
	if catalog != nil {
		n.server = dash.NewServer(catalog, dash.WithObs(reg), dash.WithStore(n))
	}
	return n
}

// startWire turns the node into an HTTP process on nw: its edge loop on
// a fresh address, answering with its dash.Server or with what edge
// builds for it (WithTransport), and the router's hopTransport to that
// address, whose idle pool is the edge's admission bound: every request
// the edge can have in flight gets its connection back.
func (n *Node) startWire(nw network, edge func(*Node) http.Handler) error {
	ln, err := nw.listen("")
	if err != nil {
		return fmt.Errorf("cluster: bind %s: %w", n.id, err)
	}
	n.net, n.addr = nw, ln.Addr().String()
	n.baseURL = "http://" + n.addr
	n.handler = n.server
	if edge != nil {
		n.handler = edge(n)
	}
	n.serveOn(ln)
	n.hop = newHopTransport(nw, n.addr, int(n.maxInFlight))
	return nil
}

// serveOn starts the node's edge server on ln and records it so kill
// can close it.
func (n *Node) serveOn(ln net.Listener) {
	n.rt.Store(serveEdge(ln, n.handler))
}

// relisten re-binds the node's recorded address after a crash.
func (n *Node) relisten() error {
	ln, err := n.net.listen(n.addr)
	if err != nil {
		return fmt.Errorf("cluster: rebind %s on %s: %w", n.id, n.addr, err)
	}
	n.serveOn(ln)
	return nil
}

// Addr returns the node's listen address in the wire form,
// "127.0.0.1:port", or "" otherwise.
func (n *Node) Addr() string { return n.addr }

// BaseURL returns the URL the router's client dials for this node; ""
// outside the wire form.
func (n *Node) BaseURL() string { return n.baseURL }

// ID returns the node's name ("edge-0", "edge-1", …).
func (n *Node) ID() string { return n.id }

// Down reports whether the node is currently crashed.
func (n *Node) Down() bool { return n.down.Load() }

// kill crashes the node: its cache is dropped (a restarted process
// comes back cold), its listener — when it has one — closes so
// in-flight and future connections meet a real refusal, and every
// in-process request or probe fails with ErrNodeDown until recover.
// Closing the server closes the edge's end of every connection the
// router holds idle to it; the router is not told, as it would not be of
// a real crash, and its first reuse finds them closed (hopTransport).
// Idempotent.
func (n *Node) kill() {
	if n.down.Swap(true) {
		return
	}
	n.met.up.Set(0)
	n.store.Reset()
	if rt := n.rt.Swap(nil); rt != nil {
		rt.close()
	}
}

// recover restarts a killed node (cold — kill dropped the cache) and,
// in the wire form, re-binds its recorded address. If the address cannot
// be re-taken the node stays down, its up gauge at 0, the health layer
// keeps routing around it, and a later recover tries again. Idempotent.
func (n *Node) recover() {
	if !n.down.Swap(false) {
		return
	}
	if n.addr != "" && n.relisten() != nil {
		n.down.Store(true)
		return
	}
	n.met.up.Set(1)
}

// join and leave publish the node's entry into and exit from the
// membership on the instruments it shares, by name, with any other node
// built under its id — which is why building and retiring a node write
// neither. After leave the node's detector refuses every request.
func (n *Node) join() {
	n.met.up.Set(1)
	n.health.alive.Set(1)
}

func (n *Node) leave() {
	n.met.up.Set(0)
	n.health.remove()
}

// retire permanently stops a node that is not, or no longer, in the
// membership, closing only what the node itself opened: its listener
// and the router's idle connections to it: on RemoveNode, on Close, or
// for a node that lost its name. Idempotent.
func (n *Node) retire() {
	n.down.Store(true)
	if rt := n.rt.Swap(nil); rt != nil {
		rt.close()
	}
	if n.hop != nil {
		n.hop.drop(true)
	}
}

// probeDrainLimit bounds what a probe reads of the /v listing to leave
// its connection at EOF, where the hop can pool it.
const probeDrainLimit = 4 << 10

// ping is the active health probe: nil iff the node can take traffic.
// In the wire form it is a real GET /v under ctx through the node's hop
// — a closed listener fails it the honest way, and one that accepts and
// never answers fails when ctx does. It deliberately ignores load — an
// overloaded node is alive, and declaring it dead would amplify the
// cascade shedding exists to stop.
func (n *Node) ping(ctx context.Context) error {
	if n.down.Load() {
		return fmt.Errorf("cluster: probe %s: %w", n.id, ErrNodeDown)
	}
	if n.hop == nil {
		return nil
	}
	st, err := n.hop.get(ctx, hopTarget{path: "/v"})
	if err != nil {
		return err
	}
	io.Copy(io.Discard, io.LimitReader(st.body, probeDrainLimit))
	return st.body.Close()
}

// open asks the edge for the chunk and returns the edge's own sealed
// body with it, or nil when the edge holds none of the length the
// stream declares. A wire edge answers through the node's hop with a
// live response for the router to relay.
// By the time its head arrives the edge has finished its store Get —
// edgeConn sends the head with the first body write, after Chunk
// returned — so the body it is sending is resident, and open reads it
// from the node's store beside the stream, as coldOwners reads
// co-owners'. It can be missing: too large to cache, evicted or killed
// before the head arrived, or an edge handler answering without the
// store. The in-process edge — no listener; the only form that runs
// without a catalog, and what the deterministic failover experiment is
// built on — answers with its store's sealed body alone and a zero
// chunkStream.
func (n *Node) open(ctx context.Context, key serve.ChunkKey) (chunkStream, []byte, error) {
	if n.hop == nil {
		body, err := n.Chunk(ctx, key.Video, key.Quality, key.Tile, key.Index, key.Layer)
		return chunkStream{}, body, err
	}
	st, err := n.hop.get(ctx, hopTarget{key: key})
	if err != nil {
		return st, nil, err
	}
	body, _ := n.store.Peek(key)
	if int64(len(body)) != st.length {
		body = nil
	}
	return st, body, nil
}

// warm hands the node a pre-built body for key — the replication write
// path. A down node refuses (its restarted cache must come back cold);
// a resident key is left alone. Reports whether the body went in.
func (n *Node) warm(key serve.ChunkKey, body []byte) bool {
	if n.down.Load() {
		return false
	}
	return n.store.Put(key, body)
}

// Chunk implements dash.ChunkSource. A down node fails immediately
// with ErrNodeDown; a saturated one sheds with a KindOverload
// *dash.Error before touching the store, so the refusal costs almost
// nothing. An admitted request holds its in-flight slot while its
// caller wants it. A miss whose caller leaves frees the slot then,
// though its goroutine stays in the store's flight until that runs to
// completion, so the slot counts callers, not syntheses. A hit returns
// at once and skips that bookkeeping.
func (n *Node) Chunk(ctx context.Context, videoID string, quality, tile, index int, layer bool) ([]byte, error) {
	if n.down.Load() {
		n.met.denials.Inc()
		return nil, fmt.Errorf("cluster: %s: %w", n.id, ErrNodeDown)
	}
	if cur := n.inflight.Add(1); cur > n.maxInFlight {
		n.inflight.Add(-1)
		n.met.sheds.Inc()
		return nil, &dash.Error{
			Op: dash.ChunkPath(videoID, quality, tile, index, layer), Kind: dash.KindOverload,
			Attempts: 1, RetryAfter: shedRetryAfter, Err: dash.ErrUnavailable,
		}
	}
	n.met.requests.Inc()
	key := serve.ChunkKey{Video: videoID, Quality: quality, Tile: tile, Index: index, Layer: layer}
	if n.store.Contains(key) {
		defer n.inflight.Add(-1)
		return n.store.Get(ctx, key)
	}
	sl := &slot{n: n}
	stop := context.AfterFunc(ctx, sl.free)
	defer func() {
		stop()
		sl.free()
	}()
	return n.store.Get(ctx, key)
}

// slot is one admitted miss's claim on its node's in-flight bound. The
// caller's leaving and the request's return both free it; the Once
// frees it on whichever comes first and makes the other wait, so the
// slot is free by the time Chunk returns.
type slot struct {
	once sync.Once
	n    *Node
}

func (s *slot) free() { s.once.Do(func() { s.n.inflight.Add(-1) }) }

// Handler returns the node's own dash.Server — the edge as an HTTP
// process, overload and down semantics included (503+Retry-After).
// Nil when the cluster was built without a catalog.
func (n *Node) Handler() http.Handler {
	if n.server == nil {
		return nil
	}
	return n.server
}

// Store exposes the node's chunk store for inspection.
func (n *Node) Store() *serve.Store { return n.store }

// Requests, Misses and Hits report the node's admitted requests, cache
// misses (each one an origin fetch) and the difference — the per-node
// hit/miss accounting routing assertions key off.
func (n *Node) Requests() int64 { return n.met.requests.Value() }

// Misses reports the node's cache misses (origin fetches).
func (n *Node) Misses() int64 { return n.met.misses.Value() }

// Hits reports requests served without an origin fetch (singleflight
// waiters count as hits: they were served by a peer's synthesis).
func (n *Node) Hits() int64 { return n.Requests() - n.Misses() }
