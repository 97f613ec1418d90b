package cluster

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"sperke/internal/dash"
	"sperke/internal/media"
	"sperke/internal/obs"
	"sperke/internal/serve"
	"sperke/internal/sim"
	"sperke/internal/tiling"
)

// wireVideo is the catalog entry wire tests address chunks against —
// node dash.Servers validate every chunk address against it.
func wireVideo() *media.Video {
	return &media.Video{
		ID:             "wire",
		Duration:       20 * time.Second,
		ChunkDuration:  2 * time.Second,
		Grid:           tiling.GridPrototype,
		ProjectionName: "equirectangular",
		Ladder:         media.DefaultLadder,
		Encoding:       media.EncodingAVC,
	}
}

// wireKeys is 48 distinct valid chunk addresses for wireVideo.
func wireKeys(v *media.Video) []serve.ChunkKey {
	var keys []serve.ChunkKey
	for idx := 0; idx < 2; idx++ {
		for tile := 0; tile < v.Grid.Tiles(); tile++ {
			for q := 0; q < 3; q++ {
				keys = append(keys, serve.ChunkKey{Video: v.ID, Quality: q, Tile: tile, Index: idx})
			}
		}
	}
	return keys
}

func wireCatalog(t testing.TB, v *media.Video) *dash.Catalog {
	t.Helper()
	catalog := dash.NewCatalog()
	if err := catalog.Add(v); err != nil {
		t.Fatal(err)
	}
	return catalog
}

func chunkGET(t *testing.T, h http.Handler, key serve.ChunkKey) *httptest.ResponseRecorder {
	t.Helper()
	path := fmt.Sprintf("/v/%s/c/%d/%d/%d", key.Video, key.Quality, key.Tile, key.Index)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
	return rec
}

// TestWireClusterServesOverLoopback pins the wire tentpole end to end
// on the in-memory carrier: the front door proxies each chunk
// from its rendezvous owner's own HTTP process as a stream
// (Content-Length forwarded), the owner caches it, and a warm replay
// never touches the origin.
func TestWireClusterServesOverLoopback(t *testing.T) {
	v := wireVideo()
	origin := &countingOrigin{}
	c, err := New(origin,
		WithNodes(3), WithLoopback(), WithCatalog(wireCatalog(t, v)),
		WithClock(sim.NewClock(1)))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	keys := wireKeys(v)
	for _, key := range keys {
		rec := chunkGET(t, c.FrontDoor(), key)
		if rec.Code != http.StatusOK {
			t.Fatalf("GET %v: status %d: %s", key, rec.Code, rec.Body.String())
		}
		want := originBody(key)
		if rec.Body.String() != string(want) {
			t.Fatalf("key %v: body %q, want %q", key, rec.Body.String(), want)
		}
		if got := rec.Header().Get("Content-Length"); got != strconv.Itoa(len(want)) {
			t.Fatalf("key %v: Content-Length %q, want %d", key, got, len(want))
		}
	}
	if origin.count() != len(keys) {
		t.Fatalf("cold pass cost %d origin fetches, want %d", origin.count(), len(keys))
	}
	// Every key lives on exactly its rendezvous owner (R=1).
	for _, key := range keys {
		top := Rank(key, c.NodeNames())[0]
		for _, n := range c.Nodes() {
			if n.Store().Contains(key) != (n.ID() == top) {
				t.Fatalf("key %v: cached on %s, rendezvous owner is %s", key, n.ID(), top)
			}
		}
	}
	for _, key := range keys {
		if rec := chunkGET(t, c.FrontDoor(), key); rec.Code != http.StatusOK {
			t.Fatalf("warm GET %v: status %d", key, rec.Code)
		}
	}
	if origin.count() != len(keys) {
		t.Fatalf("warm pass refetched from the origin (%d total, want %d)", origin.count(), len(keys))
	}
}

// TestWireFrontDoorHeadOpensNoHop: a HEAD at the front door is answered
// from the catalog's size model. It is not routed — cluster.requests
// and every edge's request count stay put, no edge or origin store
// gains a body — and its Content-Length is the GET's.
func TestWireFrontDoorHeadOpensNoHop(t *testing.T) {
	v := wireVideo()
	catalog := wireCatalog(t, v)
	reg := obs.NewRegistry()
	origin := serve.NewCatalogStore(catalog, serve.StoreConfig{})
	c, err := New(origin, WithNodes(3), WithLoopback(), WithCatalog(catalog), WithObs(reg))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	routed := reg.Counter("cluster.requests")
	atEdges := func() (n int64) {
		for _, node := range c.Nodes() {
			n += node.Requests()
		}
		return n
	}
	rec := httptest.NewRecorder()
	c.FrontDoor().ServeHTTP(rec, httptest.NewRequest(http.MethodHead, "/v/wire/c/2/5/1", nil))
	if rec.Code != http.StatusOK || rec.Body.Len() != 0 {
		t.Fatalf("HEAD: status %d, %d body bytes", rec.Code, rec.Body.Len())
	}
	if routed.Value() != 0 || atEdges() != 0 || origin.Len() != 0 {
		t.Fatalf("HEAD: cluster.requests %d, edge requests %d, origin bodies %d; want 0 of each", routed.Value(), atEdges(), origin.Len())
	}
	get := chunkGET(t, c.FrontDoor(), serve.ChunkKey{Video: v.ID, Quality: 2, Tile: 5, Index: 1})
	if routed.Value() != 1 || atEdges() != 1 {
		t.Fatalf("GET: cluster.requests %d, edge requests %d; want 1 and 1", routed.Value(), atEdges())
	}
	if h, g := rec.Header().Get("Content-Length"), get.Header().Get("Content-Length"); h != g || g != strconv.Itoa(get.Body.Len()) {
		t.Fatalf("Content-Length: HEAD %q, GET %q over %d bytes", h, g, get.Body.Len())
	}
}

// TestWireKillIsConnectionRefused pins the honest failure mode of the
// wire form, on either carrier: a killed node's hop meets ECONNREFUSED —
// not a typed in-process sentinel — and the router fails the key over to
// its next-ranked owner.
func TestWireKillIsConnectionRefused(t *testing.T) {
	for _, carrier := range wireCarriers {
		t.Run(carrier, func(t *testing.T) {
			v := wireVideo()
			origin := &countingOrigin{}
			c := newCarrierCluster(t, carrier, origin, WithNodes(3), WithClock(sim.NewClock(1)))
			key := wireKeys(v)[0]
			ranked := Rank(key, c.NodeNames())
			dead, second := ranked[0], ranked[1]
			c.KillNode(dead)

			if _, _, err := c.Node(dead).open(context.Background(), key); !errors.Is(err, syscall.ECONNREFUSED) {
				t.Fatalf("killed node's wire error = %v, want ECONNREFUSED", err)
			}
			body, err := c.Chunk(context.Background(), key.Video, key.Quality, key.Tile, key.Index, key.Layer)
			if err != nil {
				t.Fatalf("failover fetch: %v", err)
			}
			if string(body) != string(originBody(key)) {
				t.Fatalf("failover body %q, want %q", body, originBody(key))
			}
			if !c.Node(second).Store().Contains(key) {
				t.Fatalf("failover did not land on next-ranked %s", second)
			}
			if got := c.met.reroutes.Value(); got != 1 {
				t.Fatalf("reroutes = %d, want 1", got)
			}
			// Recover rebinds the address; the probe path comes back.
			c.RecoverNode(dead)
			if err := c.Node(dead).Ping(context.Background()); err != nil {
				t.Fatalf("recovered node's wire probe: %v", err)
			}
		})
	}
}

// TestWireRealListeners exercises WithWire(true) — actual TCP
// listeners on loopback: chunks served over real sockets, Kill closes
// the listener (dial refused), Recover re-binds the same address.
func TestWireRealListeners(t *testing.T) {
	v := wireVideo()
	origin := &countingOrigin{}
	c, err := New(origin,
		WithNodes(2), WithWire(true), WithCatalog(wireCatalog(t, v)),
		WithClock(sim.NewClock(1)))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	key := wireKeys(v)[0]
	top := Rank(key, c.NodeNames())[0]
	n := c.Node(top)
	if n.Addr() == "" {
		t.Fatal("wire node has no listen address")
	}
	body, err := c.Chunk(context.Background(), key.Video, key.Quality, key.Tile, key.Index, key.Layer)
	if err != nil {
		t.Fatalf("wire fetch over real listener: %v", err)
	}
	if string(body) != string(originBody(key)) {
		t.Fatalf("wire body %q, want %q", body, originBody(key))
	}

	addr := n.Addr()
	n.Kill()
	if _, err := net.Dial("tcp", addr); err == nil {
		t.Fatal("dialing a killed node's listener succeeded")
	}
	n.Recover()
	if n.Addr() != addr {
		t.Fatalf("recovered node moved from %s to %s", addr, n.Addr())
	}
	if err := n.Ping(context.Background()); err != nil {
		t.Fatalf("probe after re-bind: %v", err)
	}
}

// TestProbeOfWedgedEdgeIsBounded: an edge that accepts connections and
// never answers — a stopped process, whose kernel still completes the
// handshake — costs a probe sweep one ProbeInterval, not the hop's 15 s
// exchange deadline, and its probe counts as a failure against it; a
// second edge, killed and recovered meanwhile, is re-admitted after
// ProbeSuccesses sweeps that each probe the wedged one too.
func TestProbeOfWedgedEdgeIsBounded(t *testing.T) {
	const interval = 200 * time.Millisecond
	clock := sim.NewClock(1)
	reg := obs.NewRegistry()
	c, err := New(&countingOrigin{}, WithNodes(2), WithWire(true), WithCatalog(wireCatalog(t, wireVideo())),
		WithObs(reg), WithClock(clock),
		WithHealth(HealthConfig{FailThreshold: 1, ProbeSuccesses: 2, Cooldown: time.Second, ProbeInterval: interval}))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	wedged, revived := c.Node("edge-0"), c.Node("edge-1")
	// A listener that never accepts holds the wedged edge's port, so its
	// Recover cannot re-bind: the node is up, and silent.
	wedged.Kill()
	hold, err := net.Listen("tcp", wedged.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer hold.Close()
	wedged.Recover()
	revived.Kill()

	alive := func(n *Node) int64 { return reg.Gauge("cluster.health." + n.ID() + ".alive").Value() }
	sweep := func(i int) {
		t.Helper()
		start := time.Now()
		c.ProbeAll()
		if took := time.Since(start); took > 2*interval {
			t.Fatalf("sweep %d took %v with one edge wedged, want at most %v", i, took, 2*interval)
		}
		if alive(wedged) != 0 {
			t.Fatalf("sweep %d: the wedged edge's probe did not count against it", i)
		}
	}
	sweep(0)
	if alive(revived) != 0 {
		t.Fatal("the killed edge passed its probe")
	}
	revived.Recover()
	for i := 1; i <= 2; i++ {
		// Past both breakers' cooldown: each sweep probes both edges.
		clock.RunUntil(clock.Now() + 2*time.Second)
		sweep(i)
	}
	if alive(revived) != 1 {
		t.Fatal("the recovered edge was not re-admitted after two clean probes")
	}
	if got := reg.Counter("cluster.health.up_transitions").Value(); got != 1 {
		t.Fatalf("up_transitions = %d, want 1", got)
	}
}

// roundTripFunc adapts a function into an http.RoundTripper.
type roundTripFunc func(*http.Request) (*http.Response, error)

func (f roundTripFunc) RoundTrip(req *http.Request) (*http.Response, error) { return f(req) }

// TestWithTransportForwardsEachEdge: under WithTransport every edge loop
// hands the hop's request to the RoundTripper, addressed to the node's
// own BaseURL, and answers with what comes back — so a harness that
// serves each node's handler itself sees every hop, and the front door
// serves the chunk whole under its length.
func TestWithTransportForwardsEachEdge(t *testing.T) {
	var c *Cluster
	var forwarded atomic.Int64
	rt := roundTripFunc(func(req *http.Request) (*http.Response, error) {
		for _, n := range c.Nodes() {
			if "http://"+req.URL.Host == n.BaseURL() {
				forwarded.Add(1)
				rec := httptest.NewRecorder()
				n.Handler().ServeHTTP(rec, req)
				return rec.Result(), nil
			}
		}
		return nil, fmt.Errorf("no node at %s", req.URL.Host)
	})
	c = newCarrierCluster(t, "in-process", catalogOrigin(t), WithNodes(3), WithTransport(rt))
	key := wireKeys(wireVideo())[0]
	want, err := dash.BuildChunkBody(wireVideo(), key.Quality, key.Tile, key.Index, key.Layer)
	if err != nil {
		t.Fatal(err)
	}
	rec := chunkGET(t, c.FrontDoor(), key)
	if rec.Code != http.StatusOK || !bytes.Equal(rec.Body.Bytes(), want) || rec.Header().Get("Content-Length") != strconv.Itoa(len(want)) {
		t.Fatalf("GET: %d, %d bytes under Content-Length %q; want 200 and the %d-byte chunk", rec.Code, rec.Body.Len(), rec.Header().Get("Content-Length"), len(want))
	}
	if got := forwarded.Load(); got != 1 {
		t.Fatalf("%d requests reached the RoundTripper, want the one hop", got)
	}
	if owner := c.Node(Rank(key, c.NodeNames())[0]); !owner.Store().Contains(key) {
		t.Fatalf("%s, the key's owner, did not serve it", owner.ID())
	}
}

// TestWireVideoIDsTravelEscaped: every video ID dash's own round trip
// holds (its TestVideoIDsTravelEscaped list) crosses the router's hop
// intact — the request line carries dash.ChunkPath's bytes — so a chunk
// and a layer fetched through a WithWire(true) front door are the bytes
// dash.BuildChunkBody makes for that ID.
func TestWireVideoIDsTravelEscaped(t *testing.T) {
	ids := []string{
		"x/y", "50%", "q?layer=1", "h#frag", "a%2Fb",
		"a b", "demo/c/0/0/0", "../demo", "...", "%2e%2e", "ünï/côdé", "semi;colon,comma", "\x00\n\xff",
		strings.Repeat("k", 255), strings.Repeat("/", 255),
	}
	video := func(id string) *media.Video {
		v := wireVideo()
		v.ID, v.Encoding = id, media.EncodingSVC
		return v
	}
	catalog := dash.NewCatalog()
	for _, id := range append(ids, "demo") {
		if err := catalog.Add(video(id)); err != nil {
			t.Fatal(err)
		}
	}
	c, err := New(serve.NewCatalogStore(catalog, serve.StoreConfig{}), WithNodes(3), WithWire(true), WithCatalog(catalog))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	for _, id := range ids {
		for _, layer := range []bool{false, true} {
			want, err := dash.BuildChunkBody(video(id), 1, 2, 3, layer)
			if err != nil {
				t.Fatal(err)
			}
			rec := httptest.NewRecorder()
			c.FrontDoor().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, dash.ChunkPath(id, 1, 2, 3, layer), nil))
			if rec.Code != http.StatusOK || !bytes.Equal(rec.Body.Bytes(), want) {
				t.Fatalf("%q layer=%v: status %d, %d bytes; want 200 and the %d bytes built for it", id, layer, rec.Code, rec.Body.Len(), len(want))
			}
		}
	}
}

// TestWireClientCountersAreTheViewers: dash.client.* counts the viewer's
// exchanges only, on every carrier. A front-door GET from a plain
// net/http client moves cluster.requests and no dash.client.* counter:
// the router's hop to an edge is not a dash.Client exchange, whether it
// is the hop's own or a dash.Client over a transport.
func TestWireClientCountersAreTheViewers(t *testing.T) {
	for name, carrier := range map[string]Option{"tcp": WithWire(true), "loopback": WithLoopback()} {
		reg := obs.NewRegistry()
		c, err := New(&countingOrigin{}, WithNodes(3), carrier, WithCatalog(wireCatalog(t, wireVideo())), WithObs(reg))
		if err != nil {
			t.Fatal(err)
		}
		srv := httptest.NewServer(c.FrontDoor())
		resp, err := srv.Client().Get(srv.URL + "/v/wire/c/1/2/0")
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		srv.Close()
		c.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: front door answered %d", name, resp.StatusCode)
		}
		if got := reg.Counter("cluster.requests").Value(); got != 1 {
			t.Fatalf("%s: cluster.requests = %d, want 1", name, got)
		}
		// Read by name, so a carrier that never registers it still reads 0.
		reg.Counter("dash.client.attempts")
		for counter, v := range reg.Snapshot().Counters {
			if strings.HasPrefix(counter, "dash.client.") && v != 0 {
				t.Errorf("%s: %s = %d after a GET from a plain client, want 0", name, counter, v)
			}
		}
	}
}

// countingListener counts the connections it accepts and, when wrap is
// set, wraps each one.
type countingListener struct {
	net.Listener
	accepted *atomic.Int64
	wrap     func(net.Conn) net.Conn
}

func (l countingListener) Accept() (net.Conn, error) {
	conn, err := l.Listener.Accept()
	if err == nil {
		l.accepted.Add(1)
		if l.wrap != nil {
			conn = l.wrap(conn)
		}
	}
	return conn, err
}

// TestWireHopReusesConnections: the router keeps as many idle
// connections to an edge as it ever has requests there at once. Eight
// front-door GETs at a time, all of keys one edge owns, fifty times
// over, open exactly eight connections on that edge: the hop hands a
// connection back to its pool in the read that reaches the body's end,
// before the relay returns, so every round finds all eight idle. On the
// shared default transport, which keeps two a host, every round dialed
// for its third request on and closed the connection after it: some
// three hundred.
func TestWireHopReusesConnections(t *testing.T) {
	c, _ := newWireCluster(t, "tcp")
	const atOnce, rounds = 8, 50
	edge := c.Nodes()[0]
	owned := ownedKeys(t, c, edge, atOnce)
	edge.Kill()
	accepted := recoverCounting(t, edge, nil)

	front := c.FrontDoor()
	for round := 0; round < rounds; round++ {
		start := make(chan struct{})
		var wg sync.WaitGroup
		for _, key := range owned {
			wg.Add(1)
			go func() {
				defer wg.Done()
				<-start
				if rec := chunkGET(t, front, key); rec.Code != http.StatusOK || rec.Body.String() != string(originBody(key)) {
					t.Errorf("round %d: front door answered %v with %d and %d bytes", round, key, rec.Code, rec.Body.Len())
				}
			}()
		}
		close(start)
		wg.Wait()
	}
	if got := edge.Requests(); got != atOnce*rounds {
		t.Fatalf("%s admitted %d requests, want all %d (a GET was served elsewhere)", edge.ID(), got, atOnce*rounds)
	}
	if got := accepted.Load(); got != atOnce {
		t.Fatalf("%d requests, never more than %d at once, opened %d connections on %s; want %d", atOnce*rounds, atOnce, got, edge.ID(), atOnce)
	}
}

// TestShedReadsTheSameOnBothCarriers: a saturated edge's 503 must
// reach the router as the same *dash.Error text whether it crossed the
// in-process loopback transport or a real TCP listener — the loopback
// carrier used to drop the code from the status line net/http gives.
func TestShedReadsTheSameOnBothCarriers(t *testing.T) {
	v := wireVideo()
	key := wireKeys(v)[0]
	texts := make(map[string]string)
	for name, carrier := range map[string]Option{"loopback": WithLoopback(), "tcp": WithWire(true)} {
		c, err := New(&countingOrigin{}, WithNodes(1), carrier, WithCatalog(wireCatalog(t, v)),
			withMaxInFlight(1), WithClock(sim.NewClock(1)))
		if err != nil {
			t.Fatal(err)
		}
		n := c.Nodes()[0]
		n.inflight.Add(1) // the admission slot is taken
		_, _, err = n.open(context.Background(), key)
		n.retire()
		var de *dash.Error
		if !errors.As(err, &de) || de.Kind != dash.KindOverload {
			t.Fatalf("%s: shed came back as %v, want a KindOverload *dash.Error", name, err)
		}
		texts[name] = err.Error()
	}
	if texts["loopback"] != texts["tcp"] {
		t.Fatalf("the same shed reads differently by carrier:\nloopback: %s\ntcp:      %s", texts["loopback"], texts["tcp"])
	}
}

// TestWireReplicationSurvivesOwnerKill is the replication acceptance
// (E23): with R=2 every served body lands on both rendezvous owners,
// so killing either one and replaying the whole key set costs exactly
// zero incremental origin fetches — an equality on counters, not a
// bound. Warm writes are asynchronous now, so the equality is eventual
// until DrainWarms fences the warm queue; after the fence it is exact
// again.
func TestWireReplicationSurvivesOwnerKill(t *testing.T) {
	for _, carrier := range wireCarriers {
		t.Run(carrier, func(t *testing.T) {
			v := wireVideo()
			origin := &countingOrigin{}
			c := newCarrierCluster(t, carrier, origin, WithNodes(3), WithReplication(2), WithClock(sim.NewClock(1)))
			keys := wireKeys(v)
			for _, key := range keys {
				if _, err := c.Chunk(context.Background(), key.Video, key.Quality, key.Tile, key.Index, key.Layer); err != nil {
					t.Fatalf("warm pass %v: %v", key, err)
				}
			}
			if origin.count() != len(keys) {
				t.Fatalf("warm pass cost %d origin fetches, want %d", origin.count(), len(keys))
			}
			// The replication write-through runs on the warm worker; the fence
			// turns "eventually both owners hold every key" into an exact
			// assertion.
			c.DrainWarms()
			if got := c.Warms(); got != int64(len(keys)) {
				t.Fatalf("warms = %d, want one per key = %d", got, len(keys))
			}
			for _, key := range keys {
				for _, id := range Owners(key, c.NodeNames(), 2) {
					if !c.Node(id).Store().Contains(key) {
						t.Fatalf("key %v missing from owner %s", key, id)
					}
				}
			}

			const dead = "edge-1"
			deadOwned := 0
			for _, key := range keys {
				if Rank(key, c.NodeNames())[0] == dead {
					deadOwned++
				}
			}
			if deadOwned == 0 {
				t.Fatal("no key's primary owner is the node being killed; scenario asserts nothing")
			}
			c.KillNode(dead)
			before := origin.count()
			reroutesBefore := c.met.reroutes.Value()
			for _, key := range keys {
				body, err := c.Chunk(context.Background(), key.Video, key.Quality, key.Tile, key.Index, key.Layer)
				if err != nil {
					t.Fatalf("post-kill fetch %v: %v", key, err)
				}
				if string(body) != string(originBody(key)) {
					t.Fatalf("post-kill body mismatch for %v", key)
				}
			}
			if got := origin.count(); got != before {
				t.Fatalf("killing a replicated owner cost %d incremental origin fetches, want exactly 0", got-before)
			}
			if got := c.met.reroutes.Value() - reroutesBefore; got != int64(deadOwned) {
				t.Fatalf("post-kill pass rerouted %d keys, want exactly the dead node's %d", got, deadOwned)
			}
		})
	}
}

// TestRemoveNodeWithReplicationCostsNoRefetch: draining a member out of
// a replicated cluster is free for warm keys — the surviving owner
// already holds every copy — and the retired node's process refuses.
func TestRemoveNodeWithReplicationCostsNoRefetch(t *testing.T) {
	for _, carrier := range wireCarriers {
		t.Run(carrier, func(t *testing.T) {
			v := wireVideo()
			origin := &countingOrigin{}
			c := newCarrierCluster(t, carrier, origin, WithNodes(3), WithReplication(2), WithClock(sim.NewClock(1)))
			keys := wireKeys(v)
			for _, key := range keys {
				if _, err := c.Chunk(context.Background(), key.Video, key.Quality, key.Tile, key.Index, key.Layer); err != nil {
					t.Fatal(err)
				}
			}
			// Fence the async replication writes: removal is only free once the
			// surviving owner actually holds the copies.
			c.DrainWarms()
			const drained = "edge-2"
			removed := c.Node(drained)
			if err := c.RemoveNode(drained); err != nil {
				t.Fatal(err)
			}
			if err := c.RemoveNode(drained); err == nil {
				t.Fatal("second RemoveNode of the same name succeeded")
			}
			if len(c.NodeNames()) != 2 {
				t.Fatalf("membership after removal: %v", c.NodeNames())
			}
			if _, _, err := removed.open(context.Background(), keys[0]); !errors.Is(err, syscall.ECONNREFUSED) {
				t.Fatalf("retired node's wire error = %v, want ECONNREFUSED", err)
			}
			before := origin.count()
			for _, key := range keys {
				if _, err := c.Chunk(context.Background(), key.Video, key.Quality, key.Tile, key.Index, key.Layer); err != nil {
					t.Fatalf("post-removal fetch %v: %v", key, err)
				}
			}
			if got := origin.count(); got != before {
				t.Fatalf("removing a replicated member cost %d origin refetches, want exactly 0", got-before)
			}
		})
	}
}

// TestAddNodeMovesOnlyReshardedKeys is the live-membership acceptance:
// growing the cluster moves exactly the keys rendezvous reshards onto
// the new member — counted precisely by per-node miss counters — and
// disturbs nothing else.
func TestAddNodeMovesOnlyReshardedKeys(t *testing.T) {
	for _, carrier := range wireCarriers {
		t.Run(carrier, func(t *testing.T) {
			v := wireVideo()
			origin := &countingOrigin{}
			c := newCarrierCluster(t, carrier, origin, WithNodes(3), WithClock(sim.NewClock(1)))
			keys := wireKeys(v)
			for _, key := range keys {
				if _, err := c.Chunk(context.Background(), key.Video, key.Quality, key.Tile, key.Index, key.Layer); err != nil {
					t.Fatal(err)
				}
			}
			oldIDs := c.NodeNames()
			missesBefore := map[string]int64{}
			for _, n := range c.Nodes() {
				missesBefore[n.ID()] = n.Misses()
			}

			added, err := c.AddNode("")
			if err != nil {
				t.Fatal(err)
			}
			if added.ID() != "edge-3" {
				t.Fatalf("auto-assigned name %q, want edge-3", added.ID())
			}
			if _, err := c.AddNode("edge-0"); err == nil {
				t.Fatal("AddNode accepted a duplicate name")
			}
			newIDs := c.NodeNames()
			moved := 0
			for _, key := range keys {
				was, now := Rank(key, oldIDs)[0], Rank(key, newIDs)[0]
				if now != was && now != added.ID() {
					t.Fatalf("key %v moved %s→%s; only the new node may steal keys", key, was, now)
				}
				if now == added.ID() {
					moved++
				}
			}
			if moved == 0 {
				t.Fatal("no key resharded onto the new node; the test asserts nothing")
			}

			for _, key := range keys {
				if _, err := c.Chunk(context.Background(), key.Video, key.Quality, key.Tile, key.Index, key.Layer); err != nil {
					t.Fatalf("post-add fetch %v: %v", key, err)
				}
			}
			if got := added.Misses(); got != int64(moved) {
				t.Fatalf("new node pulled %d keys from the origin, rendezvous resharded exactly %d", got, moved)
			}
			for _, id := range oldIDs {
				if got := c.Node(id).Misses(); got != missesBefore[id] {
					t.Fatalf("unmoved member %s refetched %d keys from the origin", id, got-missesBefore[id])
				}
			}
		})
	}
}

// TestLosingDuplicateLeavesTheWinnerAlone: AddNode builds a node before
// it takes the membership lock, so two callers adding one name build two
// nodes and the second is retired. The loser shares its instruments with
// the member that holds the name, and retiring it must write none of
// them: the member stays up, reachable and warm.
func TestLosingDuplicateLeavesTheWinnerAlone(t *testing.T) {
	for _, carrier := range wireCarriers {
		t.Run(carrier, func(t *testing.T) {
			v := wireVideo()
			origin := &countingOrigin{}
			c := newCarrierCluster(t, carrier, origin, WithNodes(3), WithClock(sim.NewClock(1)))
			keys := wireKeys(v)
			for _, key := range keys {
				fetchKey(t, c, key)
			}
			// What AddNode("edge-0") does once a concurrent caller has taken the
			// name between its two checks.
			loser, err := c.buildNode("edge-0")
			if err != nil {
				t.Fatal(err)
			}
			loser.retire()

			for _, name := range []string{"cluster.node.edge-0.up", "cluster.health.edge-0.alive"} {
				if got := c.reg.Gauge(name).Value(); got != 1 {
					t.Fatalf("%s = %d after a duplicate of edge-0 was retired, want 1", name, got)
				}
			}
			before := origin.count()
			for _, key := range keys {
				fetchKey(t, c, key)
			}
			if got := origin.count() - before; got != 0 {
				t.Fatalf("warm pass cost %d origin fetches after a duplicate of edge-0 was retired, want 0", got)
			}
			if got := c.met.reroutes.Value(); got != 0 {
				t.Fatalf("cluster.reroutes = %d, want 0: edge-0 must still answer for its keys", got)
			}
		})
	}
}

// TestWireClusterChaosUnderLoad hammers the over-the-wire cluster from
// many goroutines through a kill/recover cycle plus a live AddNode and
// RemoveNode, with the race detector watching. No fetch may fail: the
// worst a client sees is a reroute or an origin fallback.
func TestWireClusterChaosUnderLoad(t *testing.T) {
	for _, carrier := range wireCarriers {
		t.Run(carrier, func(t *testing.T) {
			v := wireVideo()
			c := newCarrierCluster(t, carrier, &countingOrigin{}, WithNodes(4), WithReplication(2),
				WithHealth(HealthConfig{FailThreshold: 3, ProbeSuccesses: 2,
					Cooldown: time.Millisecond, ProbeInterval: time.Millisecond}))
			keys := wireKeys(v)
			const (
				workers = 8
				rounds  = 10
				dead    = "edge-1"
			)
			var failures atomic.Int64
			runRound := func() {
				var wg sync.WaitGroup
				for w := 0; w < workers; w++ {
					wg.Add(1)
					go func(w int) {
						defer wg.Done()
						for i := w; i < len(keys); i += workers {
							key := keys[i]
							if _, err := c.Chunk(context.Background(), key.Video, key.Quality, key.Tile, key.Index, key.Layer); err != nil {
								failures.Add(1)
							}
						}
					}(w)
				}
				wg.Wait()
			}
			for r := 0; r < rounds; r++ {
				switch r {
				case 2:
					c.KillNode(dead)
				case 4:
					if _, err := c.AddNode(""); err != nil {
						t.Fatalf("AddNode mid-run: %v", err)
					}
				case 6:
					c.RecoverNode(dead)
					time.Sleep(5 * time.Millisecond)
					c.ProbeAll()
					c.ProbeAll()
				case 8:
					if err := c.RemoveNode("edge-2"); err != nil {
						t.Fatalf("RemoveNode mid-run: %v", err)
					}
				}
				runRound()
				c.ProbeAll()
			}
			if got := failures.Load(); got != 0 {
				t.Fatalf("%d fetches failed across the wire chaos run", got)
			}
			if got := c.met.reroutes.Value(); got == 0 {
				t.Fatal("chaos run produced no reroutes; the kill was not exercised")
			}
			if got := c.Node(dead).Requests() + c.Node(dead).Misses(); got == 0 {
				t.Fatal("recovered node never served again")
			}
		})
	}
}

// discardResponse sinks a response body without buffering it, so the
// budgets below count the router and the edge, not a recorder's append
// loop.
type discardResponse struct {
	h http.Header
	n int64
}

func (d *discardResponse) Header() http.Header         { return d.h }
func (d *discardResponse) WriteHeader(int)             {}
func (d *discardResponse) Write(p []byte) (int, error) { d.n += int64(len(p)); return len(p), nil }

// warmFrontDoor is the router's proxy path as it ships: three edges on
// real loopback listeners in front of a catalog origin, one chunk warm on its owner, and a maker
// of front-door GETs of that chunk — each with its own request and
// sink, so several can run side by side. The router holds no cache of
// its own: every GET rendezvous-routes to the edge, runs the
// coalescer's enter/finish protocol and streams the edge's body through
// a pooled block of its class, so its cost is one proxied round trip and
// never body-sized. TestWireFrontDoorAllocBudget holds it to its budgets, one
// at a time and as a herd; BenchmarkWireColdServeThroughput and
// BenchmarkWireCoalescedHerd time the same two.
func warmFrontDoor(tb testing.TB) (newGET func() func(), bodyLen int) {
	v := wireVideo()
	catalog := wireCatalog(tb, v)
	origin := serve.NewCatalogStore(catalog, serve.StoreConfig{Shards: 16, BudgetBytes: 256 << 20})
	c := newCarrierCluster(tb, "tcp", origin, WithNodes(3))
	bodyLen, err := dash.ChunkBodyLen(v, 3, 0, 0, false)
	if err != nil {
		tb.Fatal(err)
	}
	front := c.FrontDoor()
	newGET = func() func() {
		req := httptest.NewRequest("GET", "/v/wire/c/3/0/0", nil)
		w := &discardResponse{h: make(http.Header, 4)}
		return func() {
			w.n = 0
			if front.ServeHTTP(w, req); w.n != int64(bodyLen) {
				tb.Errorf("front door served %d bytes of %d", w.n, bodyLen)
			}
		}
	}
	newGET()() // warm the owning edge and the copy pool
	return newGET, bodyLen
}

// TestWireFrontDoorAllocBudget: a proxied GET costs at most 26 objects —
// the router's hop and the edge's loop both counted — alone or in a herd
// on one key: a flight costs its leader one struct, and the protocol adds
// no channel per uncontended GET (followers that do coalesce skip the
// round trip and read fewer).
func TestWireFrontDoorAllocBudget(t *testing.T) {
	if obs.RaceEnabled {
		t.Skip("race-mode sync.Pool drops Puts at random; the allocs/op pin holds only without -race")
	}
	newGET, _ := warmFrontDoor(t)
	get := newGET()
	one := testing.AllocsPerRun(100, get)
	if one > 26 {
		t.Fatalf("a proxied GET allocates %.0f objects, want at most 26", one)
	}
	const herd = 4
	start, done := make(chan struct{}), make(chan struct{})
	defer close(start)
	for i := 0; i < herd; i++ {
		get := newGET()
		go func() {
			for range start {
				get()
				done <- struct{}{}
			}
		}()
	}
	n := testing.AllocsPerRun(50, func() {
		for i := 0; i < herd; i++ {
			start <- struct{}{}
		}
		for i := 0; i < herd; i++ {
			<-done
		}
	})
	t.Logf("a proxied GET allocates %.0f objects, a herd of %d %.0f", one, herd, n)
	if n > herd*26 {
		t.Fatalf("a herd of %d GETs allocates %.0f objects, want at most %d each", herd, n, 26)
	}
}

func BenchmarkWireColdServeThroughput(b *testing.B) {
	newGET, bodyLen := warmFrontDoor(b)
	get := newGET()
	b.SetBytes(int64(bodyLen))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		get()
	}
}

func BenchmarkWireCoalescedHerd(b *testing.B) {
	newGET, bodyLen := warmFrontDoor(b)
	b.SetBytes(int64(bodyLen))
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		get := newGET()
		for pb.Next() {
			get()
		}
	})
}
