package sperke_bench

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"testing"
	"time"

	"sperke/internal/cluster"
	"sperke/internal/dash"
	"sperke/internal/media"
	"sperke/internal/obs"
	"sperke/internal/serve"
	"sperke/internal/tiling"
)

func benchVideo() *media.Video {
	return &media.Video{
		ID:             "bench",
		Duration:       20 * time.Second,
		ChunkDuration:  2 * time.Second,
		Grid:           tiling.GridPrototype,
		ProjectionName: "equirectangular",
		Ladder:         media.DefaultLadder,
		Encoding:       media.EncodingAVC,
	}
}

func benchKeys(v *media.Video) []serve.ChunkKey {
	var keys []serve.ChunkKey
	for idx := 0; idx < v.NumChunks(); idx++ {
		for tile := 0; tile < v.Grid.Tiles(); tile++ {
			keys = append(keys, serve.ChunkKey{Video: v.ID, Quality: 3, Tile: tile, Index: idx})
		}
	}
	return keys
}

// BenchmarkChunkStore pins the sharded chunk store's cache win: "warm"
// serves resident bodies, "cold" synthesizes every request (a 1-byte
// budget makes everything uncacheable). The acceptance bar for PR 4 is
// warm ≥ 5× faster than cold; PR 5 additionally pins the allocation
// profile of both paths in BENCH_BASELINE.json.
func BenchmarkChunkStore(b *testing.B) {
	v := benchVideo()
	catalog := dash.NewCatalog()
	if err := catalog.Add(v); err != nil {
		b.Fatal(err)
	}
	keys := benchKeys(v)
	run := func(b *testing.B, st *serve.Store) {
		ctx := context.Background()
		for i := 0; i < b.N; i++ {
			if _, err := st.Get(ctx, keys[i%len(keys)]); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("cold", func(b *testing.B) {
		st := serve.NewCatalogStore(catalog, serve.StoreConfig{Shards: 16, BudgetBytes: 1})
		b.ReportAllocs()
		b.ResetTimer()
		run(b, st)
	})
	b.Run("warm", func(b *testing.B) {
		st := serve.NewCatalogStore(catalog, serve.StoreConfig{Shards: 16, BudgetBytes: 256 << 20})
		ctx := context.Background()
		for _, k := range keys {
			if _, err := st.Get(ctx, k); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportAllocs()
		b.ResetTimer()
		run(b, st)
	})
}

// memoryTransport answers every request with the same in-memory body,
// so BenchmarkClientFetchChunk measures the client, not a socket.
type memoryTransport struct{ body []byte }

func (m memoryTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	return &http.Response{
		StatusCode: http.StatusOK, Status: "200 OK",
		Proto: "HTTP/1.1", ProtoMajor: 1, ProtoMinor: 1,
		Header: make(http.Header), Request: req,
		Body:          io.NopCloser(bytes.NewReader(m.body)),
		ContentLength: int64(len(m.body)),
	}, nil
}

// BenchmarkClientFetchChunk pins the client layer's fixed cost per
// chunk: one request, the segment decoded and CRC-checked straight off
// the response body. B/op must stay at the payload the caller keeps
// plus request overhead — a second body-sized buffer means the
// read-all-then-decode shape is back — and allocs/op is gated like
// every other layer's.
func BenchmarkClientFetchChunk(b *testing.B) {
	v := benchVideo()
	body, err := dash.BuildChunkBody(v, 3, 0, 0, false)
	if err != nil {
		b.Fatal(err)
	}
	c := dash.NewClient("http://mem.bench", dash.WithTransport(memoryTransport{body: body}))
	ctx := context.Background()
	b.SetBytes(int64(len(body)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := c.FetchChunk(ctx, v.ID, 3, 0, 0)
		if err != nil {
			b.Fatal(err)
		}
		if res.WireBytes != int64(len(body)) {
			b.Fatalf("WireBytes = %d, want %d", res.WireBytes, len(body))
		}
	}
}

// loopbackPair is what BenchmarkBareExchange and TestFetchAllocsOverFloor
// compare on one listener each, both real loopback TCP: the least a
// net/http exchange of a body costs — a handler that writes the bytes
// under their Content-Length, a client that reads them into a buffer
// the caller keeps — and a warm Sperke fetch of the same bytes: mux,
// catalog, resident store hit, dash.Client, segment decode and CRC.
type loopbackPair struct {
	bare  func() error // one bare exchange
	fetch func() error // one warm dash.Client.FetchChunk
	size  int          // the body both move
	close func()
}

func newLoopbackPair(tb testing.TB) loopbackPair {
	tb.Helper()
	v := benchVideo()
	catalog := dash.NewCatalog()
	if err := catalog.Add(v); err != nil {
		tb.Fatal(err)
	}
	// Quality 1 on this video is a 43 KB body, the size the end-to-end
	// benchmark's serving workloads move.
	const q = 1
	body, err := dash.BuildChunkBody(v, q, 0, 0, false)
	if err != nil {
		tb.Fatal(err)
	}
	length := []string{fmt.Sprint(len(body))}
	bareSrv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header()["Content-Length"] = length
		w.Write(body)
	}))
	store := serve.NewCatalogStore(catalog, serve.StoreConfig{Shards: 16, BudgetBytes: 256 << 20})
	sperkeSrv := httptest.NewServer(dash.NewServer(catalog, dash.WithStore(store)))
	// A transport each, so neither side's idle connection is the other's.
	bareTr, sperkeTr := &http.Transport{}, &http.Transport{}
	bareClient := &http.Client{Transport: bareTr}
	client := dash.NewClient(sperkeSrv.URL, dash.WithTransport(sperkeTr))
	ctx := context.Background()
	return loopbackPair{
		size: len(body),
		bare: func() error {
			resp, err := bareClient.Get(bareSrv.URL)
			if err != nil {
				return err
			}
			defer resp.Body.Close()
			_, err = io.ReadFull(resp.Body, make([]byte, resp.ContentLength))
			return err
		},
		fetch: func() error {
			res, err := client.FetchChunk(ctx, v.ID, q, 0, 0)
			if err == nil && res.WireBytes != int64(len(body)) {
				err = fmt.Errorf("WireBytes = %d, want %d", res.WireBytes, len(body))
			}
			return err
		},
		close: func() {
			bareTr.CloseIdleConnections()
			sperkeTr.CloseIdleConnections()
			bareSrv.Close()
			sperkeSrv.Close()
		},
	}
}

// BenchmarkBareExchange is the floor under every serving number in this
// file and in bench/: what net/http itself spends, in time and in
// allocations, moving a chunk-sized body across loopback once. What a
// Sperke fetch costs above it is Sperke's; the rest moves with the Go
// release.
func BenchmarkBareExchange(b *testing.B) {
	p := newLoopbackPair(b)
	defer p.close()
	if err := p.bare(); err != nil { // dial
		b.Fatal(err)
	}
	b.SetBytes(int64(p.size))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := p.bare(); err != nil {
			b.Fatal(err)
		}
	}
}

// TestFetchAllocsOverFloor: a warm FetchChunk allocates at most 20
// objects more than the bare exchange measured beside it, so a Go
// upgrade that moves net/http's own count moves both and the margin
// stays Sperke's. (At go1.24: 69 and 87.)
func TestFetchAllocsOverFloor(t *testing.T) {
	if obs.RaceEnabled {
		t.Skip("net/http pools its buffers, and race-mode sync.Pool drops Puts at random")
	}
	p := newLoopbackPair(t)
	defer p.close()
	run := func(name string, exchange func() error) float64 {
		if err := exchange(); err != nil { // dial, fill the store
			t.Fatal(err)
		}
		return testing.AllocsPerRun(200, func() {
			if err := exchange(); err != nil {
				t.Errorf("%s: %v", name, err)
			}
		})
	}
	floor, fetch := run("bare exchange", p.bare), run("warm fetch", p.fetch)
	t.Logf("bare exchange %.0f allocs, warm fetch %.0f", floor, fetch)
	if fetch > floor+20 {
		t.Fatalf("a warm fetch allocates %.0f objects, %.0f over the bare exchange's %.0f; want at most 20 over", fetch, fetch-floor, floor)
	}
}

// discardResponse sinks a response body without buffering it — the
// benchmark's stand-in for a network connection, so the numbers measure
// the handler, not a recorder's append loop.
type discardResponse struct {
	h http.Header
	n int64
}

func (d *discardResponse) Header() http.Header         { return d.h }
func (d *discardResponse) WriteHeader(int)             {}
func (d *discardResponse) Write(p []byte) (int, error) { d.n += int64(len(p)); return len(p), nil }

// BenchmarkColdServeThroughput pins the writer-first serving path's
// headline number: bytes per second streamed by the store-less handler,
// which regenerates every body block-by-block straight into the
// ResponseWriter (zero body materialization). b.SetBytes makes the
// gate-tracked MB/s column; allocs/op must stay at mux routing
// overhead, never body-sized.
func BenchmarkColdServeThroughput(b *testing.B) {
	v := benchVideo()
	catalog := dash.NewCatalog()
	if err := catalog.Add(v); err != nil {
		b.Fatal(err)
	}
	srv := dash.NewServer(catalog)
	bodyLen, err := dash.ChunkBodyLen(v, 3, 0, 0, false)
	if err != nil {
		b.Fatal(err)
	}
	req := httptest.NewRequest("GET", "/v/bench/c/3/0/0", nil)
	w := &discardResponse{h: make(http.Header, 4)}
	srv.ServeHTTP(w, req) // warm the mux and block pool
	b.SetBytes(int64(bodyLen))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		srv.ServeHTTP(w, req)
	}
	if w.n == 0 {
		b.Fatal("no bytes served")
	}
}

// BenchmarkWireColdServeThroughput pins the wire cluster's router
// proxy path: a front-door GET rendezvous-routes to an edge node over
// its loopback carrier and the router streams the edge's response body
// into the ResponseWriter through a pooled copy block. The router
// holds no cache of its own — every op is a full over-the-wire round
// trip — so allocs/op is the price of one proxied request and must
// never grow body-sized (the streamdiscipline vet bans io.ReadAll on
// this path; benchgate pins the number).
func BenchmarkWireColdServeThroughput(b *testing.B) {
	v := benchVideo()
	catalog := dash.NewCatalog()
	if err := catalog.Add(v); err != nil {
		b.Fatal(err)
	}
	origin := serve.NewCatalogStore(catalog, serve.StoreConfig{Shards: 16, BudgetBytes: 256 << 20})
	c, err := cluster.New(origin,
		cluster.WithNodes(3),
		cluster.WithLoopback(),
		cluster.WithCatalog(catalog),
	)
	if err != nil {
		b.Fatal(err)
	}
	defer func() {
		for _, name := range c.NodeNames() {
			c.RemoveNode(name)
		}
	}()
	front := c.FrontDoor()
	bodyLen, err := dash.ChunkBodyLen(v, 3, 0, 0, false)
	if err != nil {
		b.Fatal(err)
	}
	req := httptest.NewRequest("GET", "/v/bench/c/3/0/0", nil)
	w := &discardResponse{h: make(http.Header, 4)}
	front.ServeHTTP(w, req) // warm the owning edge and the copy pool
	b.SetBytes(int64(bodyLen))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		front.ServeHTTP(w, req)
	}
	if w.n == 0 {
		b.Fatal("no bytes served")
	}
}

// BenchmarkWireCoalescedHerd pins the router singleflight's price
// under contention: parallel front-door GETs of one warm key, so every
// op runs the coalescer's enter/finish protocol (leading its own
// flight or briefly following a concurrent one) on top of the proxied
// round trip. The column to watch is allocs/op — a flight costs its
// leader one struct, and the protocol must never add body-sized work
// or a channel per uncontended op.
func BenchmarkWireCoalescedHerd(b *testing.B) {
	v := benchVideo()
	catalog := dash.NewCatalog()
	if err := catalog.Add(v); err != nil {
		b.Fatal(err)
	}
	origin := serve.NewCatalogStore(catalog, serve.StoreConfig{Shards: 16, BudgetBytes: 256 << 20})
	c, err := cluster.New(origin,
		cluster.WithNodes(3),
		cluster.WithLoopback(),
		cluster.WithCatalog(catalog),
	)
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()
	defer func() {
		for _, name := range c.NodeNames() {
			c.RemoveNode(name)
		}
	}()
	front := c.FrontDoor()
	bodyLen, err := dash.ChunkBodyLen(v, 3, 0, 0, false)
	if err != nil {
		b.Fatal(err)
	}
	warm := httptest.NewRequest("GET", "/v/bench/c/3/0/0", nil)
	front.ServeHTTP(&discardResponse{h: make(http.Header, 4)}, warm)
	b.SetBytes(int64(bodyLen))
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		req := httptest.NewRequest("GET", "/v/bench/c/3/0/0", nil)
		w := &discardResponse{h: make(http.Header, 4)}
		for pb.Next() {
			front.ServeHTTP(w, req)
		}
	})
}

// BenchmarkConcurrentSessions pins the session engine's scaling: 32
// simulated viewers at 1 worker vs 8. The acceptance bar is >2× wall
// speedup at 8 workers — with byte-identical per-session QoE, which the
// benchmark itself verifies against the first run's reports.
func BenchmarkConcurrentSessions(b *testing.B) {
	v := benchVideo()
	var baseline []serve.SessionResult
	for _, workers := range []int{1, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				eng, err := serve.NewEngine(serve.EngineConfig{
					Video:    v,
					Sessions: 32,
					Workers:  workers,
					BaseSeed: 42,
				})
				if err != nil {
					b.Fatal(err)
				}
				res := eng.Run(context.Background())
				if baseline == nil {
					baseline = res.Sessions
					continue
				}
				for j := range res.Sessions {
					if !reflect.DeepEqual(res.Sessions[j].Report, baseline[j].Report) {
						b.Fatalf("session %d QoE differs from the 1-worker baseline", j)
					}
				}
			}
		})
	}
}
