package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"sperke/internal/cluster"
	"sperke/internal/dash"
	"sperke/internal/media"
	"sperke/internal/obs"
	"sperke/internal/serve"
	"sperke/internal/tiling"
)

// chunkReq addresses one chunk of the workload's video.
type chunkReq struct{ q, tile, idx int32 }

func (r chunkReq) key(video string) serve.ChunkKey {
	return serve.ChunkKey{Video: video, Quality: int(r.q), Tile: int(r.tile), Index: int(r.idx)}
}

// connections is the number of generator goroutines, each closed-loop
// on its own keep-alive connection: one per core, so the generator
// never oversubscribes the box it shares with the server.
func connections() int { return min(runtime.NumCPU(), 4) }

// newVideo is the catalog entry every workload streams: the cellular
// 4x6 grid, the six-level default ladder, AVC, 2 s chunks.
func newVideo(d time.Duration) *media.Video {
	return &media.Video{
		ID:             "bench",
		Duration:       d,
		ChunkDuration:  2 * time.Second,
		Grid:           tiling.GridCellular,
		ProjectionName: "equirectangular",
		Ladder:         media.DefaultLadder,
		Encoding:       media.EncodingAVC,
	}
}

// uniformList draws n chunk addresses uniformly over every
// (quality, tile, index) of video.
func uniformList(seed int64, video *media.Video, n int) []chunkReq {
	rng := rand.New(rand.NewSource(seed))
	q, tiles, chunks := video.Qualities(), video.Grid.Tiles(), video.NumChunks()
	list := make([]chunkReq, n)
	for i := range list {
		list[i] = chunkReq{int32(rng.Intn(q)), int32(rng.Intn(tiles)), int32(rng.Intn(chunks))}
	}
	return list
}

// system is one serving stack under test plus the client that loads
// it, all in this process, joined by real loopback TCP.
type system struct {
	reg     *obs.Registry
	video   *media.Video
	store   *serve.Store     // the origin store
	clu     *cluster.Cluster // nil on the single-origin workloads
	client  *dash.Client
	closers []func()
}

func (s *system) close() {
	for i := len(s.closers) - 1; i >= 0; i-- {
		s.closers[i]()
	}
}

// listen serves h on a fresh loopback port until s.close and returns
// the address.
func (s *system) listen(h http.Handler) (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	srv := &http.Server{Handler: h}
	done := make(chan struct{})
	go func() {
		defer close(done)
		_ = srv.Serve(ln) // returns ErrServerClosed on Close
	}()
	s.closers = append(s.closers, func() {
		_ = srv.Close()
		<-done
	})
	return ln.Addr().String(), nil
}

func (s *system) transport() *http.Transport {
	tr := &http.Transport{MaxIdleConns: 64, MaxIdleConnsPerHost: 16, IdleConnTimeout: time.Minute}
	s.closers = append(s.closers, tr.CloseIdleConnections)
	return tr
}

// newOriginStore builds the 16-shard origin store. Traced, it is the
// recipe serve.NewCatalogStore builds with a span around the writer
// synth, behind a ChunkSource decorator.
func newOriginStore(catalog *dash.Catalog, budget int64, reg *obs.Registry, t *tracer) (*serve.Store, dash.ChunkSource) {
	if t == nil {
		st := serve.NewCatalogStore(catalog, serve.StoreConfig{Shards: 16, BudgetBytes: budget, Obs: reg})
		return st, st
	}
	lookup := func(key serve.ChunkKey) (*media.Video, error) {
		v, ok := catalog.Get(key.Video)
		if !ok {
			return nil, fmt.Errorf("bench: video %q not in catalog", key.Video)
		}
		return v, nil
	}
	st := serve.New(serve.WithWriterSynth(serve.WriterSynth{
		Size: func(key serve.ChunkKey) (int, error) {
			v, err := lookup(key)
			if err != nil {
				return 0, err
			}
			return dash.ChunkBodyLen(v, key.Quality, key.Tile, key.Index, key.Layer)
		},
		Write: func(w io.Writer, key serve.ChunkKey) error {
			v, err := lookup(key)
			if err != nil {
				return err
			}
			_, ls := t.start(context.Background(), "media.synth", key)
			defer ls.end()
			return dash.WriteChunkBody(w, v, key.Quality, key.Tile, key.Index, key.Layer)
		},
	}), serve.WithShards(16), serve.WithBudget(budget), serve.WithObs(reg))
	return st, &tracedSource{t: t, store: st}
}

// newSystem builds the stack for one workload: a single origin
// (nodes == 0) or a wire cluster of that many R=2 edges in front of it.
// One registry is wired through every layer, as sperke-server and
// sperke-loadgen do. With a tracer, span decorators go in at the public
// seams; without one, nothing of the harness sits on the request path.
func newSystem(video *media.Video, originBudget int64, nodes int, nodeBudget int64, t *tracer) (*system, error) {
	s := &system{reg: obs.NewRegistry(), video: video}
	catalog := dash.NewCatalog()
	if err := catalog.Add(video); err != nil {
		return nil, err
	}
	var src dash.ChunkSource
	s.store, src = newOriginStore(catalog, originBudget, s.reg, t)

	var front http.Handler
	frontName := "dash.server"
	if nodes == 0 {
		front = dash.NewServer(catalog, dash.WithObs(s.reg), dash.WithStore(src))
	} else {
		frontName = "cluster.front"
		opts := []cluster.Option{
			cluster.WithNodes(nodes), cluster.WithReplication(2), cluster.WithCatalog(catalog),
			cluster.WithNodeBudget(nodeBudget), cluster.WithObs(s.reg),
		}
		var hop *tracedTransport
		if t == nil {
			opts = append(opts, cluster.WithWire(true))
		} else {
			// Same hop over real loopback TCP, but through listeners the
			// harness binds so the edge handler can be decorated.
			hop = &tracedTransport{t: t, name: "wire.hop", inner: s.transport(), rewrite: make(map[string]string)}
			opts = append(opts, cluster.WithTransport(hop))
		}
		clu, err := cluster.New(src, opts...)
		if err != nil {
			return nil, err
		}
		s.clu = clu
		s.closers = append(s.closers, func() {
			for _, name := range clu.NodeNames() {
				_ = clu.RemoveNode(name) // closes the node's listener
			}
			clu.Close()
		})
		if hop != nil {
			for _, n := range clu.Nodes() {
				addr, err := s.listen(tracedHandler(t, "cluster.edge", n.Handler()))
				if err != nil {
					s.close()
					return nil, err
				}
				hop.rewrite[strings.TrimPrefix(n.BaseURL(), "http://")] = addr
			}
		}
		front = clu.FrontDoor()
	}
	var rt http.RoundTripper = s.transport()
	if t != nil {
		front = tracedHandler(t, frontName, front)
		rt = &tracedTransport{t: t, name: "wire.front", inner: rt}
	}
	addr, err := s.listen(front)
	if err != nil {
		s.close()
		return nil, err
	}
	s.client = dash.NewClient("http://"+addr, dash.WithTransport(rt), dash.WithClientObs(s.reg))
	return s, nil
}

// fetchAll fetches every request once over the workload's connections,
// untimed: the resident fill and the warm-up.
func (s *system) fetchAll(reqs []chunkReq) error {
	var next atomic.Int64
	var firstErr atomic.Pointer[error]
	var wg sync.WaitGroup
	for w := 0; w < connections(); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for firstErr.Load() == nil {
				i := int(next.Add(1) - 1)
				if i >= len(reqs) {
					return
				}
				r := reqs[i]
				if _, err := s.client.FetchChunk(context.Background(), s.video.ID, int(r.q), int(r.tile), int(r.idx)); err != nil {
					firstErr.CompareAndSwap(nil, &err)
				}
			}
		}()
	}
	wg.Wait()
	if e := firstErr.Load(); e != nil {
		return fmt.Errorf("bench: set-up fetch: %w", *e)
	}
	return nil
}

// ---- closed-loop load ----

// roundStat is one round of the timed phase: a fixed number of
// requests. Wall-clock metrics are medians over rounds, so one
// noisy-neighbour burst spoils one round; counts are sums.
type roundStat struct {
	ok    int
	wall  time.Duration
	bytes int64
	p50ms float64 // as measured
	p90ms float64
	p99ms float64
	// yard is what a yardstick exchange cost around the round; scale
	// converts a time measured during the round to calibrated time (see
	// reference.go), and rates divide by it.
	yard  time.Duration
	scale float64
	// Process-wide counters over the round. Nothing but the workload runs
	// during a round, so they are its cost.
	cpu, sys   time.Duration
	mallocs    uint64
	allocBytes uint64
}

// rps is the round's goodput as measured.
func (r roundStat) rps() float64 { return float64(r.ok) / r.wall.Seconds() }

// sample is a response kept for the byte-for-byte check after its
// round, outside the measured window.
type sample struct {
	req chunkReq
	res dash.FetchResult
}

// loader drives a system through its request list.
type loader struct {
	sys  *system
	list []chunkReq
	t    *tracer
	yard yardstick
	next atomic.Int64 // position of the next request in list (cyclic)

	rounds       []roundStat
	attempted    int
	failed       int
	latQ0, latQ5 []float64 // ms as measured, smallest and largest message class
}

// newLoader starts at position first of list: what lies before it was
// set-up's.
func newLoader(sys *system, list []chunkReq, first int, t *tracer, yard yardstick) *loader {
	l := &loader{sys: sys, list: list, t: t, yard: yard}
	l.next.Store(int64(first))
	return l
}

// deepCheckEvery is how often a response is compared byte for byte with
// dash.BuildChunkBody; every response gets the header check.
const deepCheckEvery = 256

type workerStat struct {
	lat          []float64 // ms, every verified request
	latQ0, latQ5 []float64 // ms, the smallest and the largest message class
	bytes        int64
	failed       int
	samples      []sample
}

// runRound runs the next n requests of the list closed-loop over the
// workload's connections.
func (l *loader) runRound(n int) roundStat {
	limit := l.next.Load() + int64(n)
	stats := make([]workerStat, connections())
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	u0, s0 := cpuTimes()
	t0 := time.Now()
	var wg sync.WaitGroup
	for w := range stats {
		wg.Add(1)
		go func(st *workerStat) {
			defer wg.Done()
			for {
				i := l.next.Add(1) - 1
				if i >= limit {
					return
				}
				l.fetchOne(i, st)
			}
		}(&stats[w])
	}
	wg.Wait()
	wall := time.Since(t0)
	u1, s1 := cpuTimes()
	runtime.ReadMemStats(&ms1)
	l.next.Store(limit)

	rs := roundStat{
		wall: wall, cpu: (u1 - u0) + (s1 - s0), sys: s1 - s0,
		mallocs: ms1.Mallocs - ms0.Mallocs, allocBytes: ms1.TotalAlloc - ms0.TotalAlloc,
	}
	var lat []float64
	for i := range stats {
		st := &stats[i]
		l.attempted += len(st.lat) + st.failed
		l.failed += st.failed
		rs.bytes += st.bytes
		lat = append(lat, st.lat...)
		l.latQ0 = append(l.latQ0, st.latQ0...)
		l.latQ5 = append(l.latQ5, st.latQ5...)
		for _, sm := range st.samples {
			if err := l.deepCheck(sm); err != nil {
				l.failed++
				fmt.Fprintln(logOut, "bench: verify:", err)
			}
		}
	}
	rs.ok = len(lat)
	sort.Float64s(lat)
	rs.p50ms, rs.p90ms, rs.p99ms = quantile(lat, 0.50), quantile(lat, 0.90), quantile(lat, 0.99)
	return rs
}

// fetchOne issues request number i and verifies what came back:
// FetchChunk already CRC-checks the segment, the header must name the
// chunk that was asked for.
func (l *loader) fetchOne(i int64, st *workerStat) {
	r := l.list[int(i%int64(len(l.list)))]
	v := l.sys.video
	ctx, ls := l.t.startRoot(context.Background(), "client", uint64(i)+1, r.key(v.ID))
	start := time.Now()
	res, err := l.sys.client.FetchChunk(ctx, v.ID, int(r.q), int(r.tile), int(r.idx))
	lat := time.Since(start)
	ls.end()
	if err != nil {
		st.failed++
		fmt.Fprintln(logOut, "bench: fetch:", err)
		return
	}
	h := res.Header
	if h.VideoID != v.ID || h.Quality != int(r.q) || int(h.Tile) != int(r.tile) || h.Start != v.ChunkStart(int(r.idx)) {
		st.failed++
		fmt.Fprintf(logOut, "bench: verify: asked for %+v, header says %+v\n", r, h)
		return
	}
	ms := float64(lat) / float64(time.Millisecond)
	st.lat = append(st.lat, ms)
	switch int(r.q) {
	case 0:
		st.latQ0 = append(st.latQ0, ms)
	case v.Qualities() - 1:
		st.latQ5 = append(st.latQ5, ms)
	}
	st.bytes += res.WireBytes
	if i%deepCheckEvery == 0 {
		st.samples = append(st.samples, sample{r, res})
	}
}

// deepCheck compares a response with the body dash.BuildChunkBody
// synthesizes for the same address.
func (l *loader) deepCheck(sm sample) error {
	v := l.sys.video
	body, err := dash.BuildChunkBody(v, int(sm.req.q), int(sm.req.tile), int(sm.req.idx), false)
	if err != nil {
		return err
	}
	h, payload, err := media.ReadSegment(bytes.NewReader(body))
	if err != nil {
		return err
	}
	if sm.res.WireBytes != int64(len(body)) || h != sm.res.Header || !bytes.Equal(payload, sm.res.Payload) {
		return fmt.Errorf("response for %+v differs from dash.BuildChunkBody", sm.req)
	}
	return nil
}

// run is the timed phase: n requests as `rounds` equal-count rounds,
// with the yardstick sampled around each.
func (l *loader) run(rounds, n int) error {
	yard, err := l.yard.aroundEach(rounds, func(r int) error {
		rs := l.runRound((n*(r+1))/rounds - (n*r)/rounds)
		if rs.ok == 0 {
			return errNoRounds
		}
		l.rounds = append(l.rounds, rs)
		return nil
	})
	for r := range yard {
		l.rounds[r].yard, l.rounds[r].scale = yard[r], l.yard.scale(yard[r])
	}
	return err
}

// perReq is a process counter summed over the rounds, per verified
// request.
func (l *loader) perReq(f func(roundStat) float64) float64 {
	var sum float64
	ok := 0
	for _, r := range l.rounds {
		sum += f(r)
		ok += r.ok
	}
	return sum / float64(ok)
}

// endToEndMetrics folds the rounds into the serving end-to-end metrics
// (all but setup_s and peak_rss_MB, which the caller owns). Times and
// rates are calibrated round by round.
func (l *loader) endToEndMetrics(m metricSet) {
	m["goodput_rps"] = medianOver(l.rounds, func(r roundStat) float64 { return r.rps() / r.scale })
	m["goodput_MBps"] = medianOver(l.rounds, func(r roundStat) float64 {
		return float64(r.bytes) / 1e6 / r.wall.Seconds() / r.scale
	})
	m["fetch_p50_ms"] = medianOver(l.rounds, func(r roundStat) float64 { return r.p50ms * r.scale })
	m["fetch_p90_ms"] = medianOver(l.rounds, func(r roundStat) float64 { return r.p90ms * r.scale })
	m["allocs_per_req"] = l.perReq(func(r roundStat) float64 { return float64(r.mallocs) })
	m["alloc_KB_per_req"] = l.perReq(func(r roundStat) float64 { return float64(r.allocBytes) / 1e3 })
}

// rawMetrics reports what the calibrated figures were computed from.
func (l *loader) rawMetrics(m metricSet) {
	m["raw.goodput_rps"] = medianOver(l.rounds, roundStat.rps)
	m["raw.fetch_p50_ms"] = medianOver(l.rounds, func(r roundStat) float64 { return r.p50ms })
	m["raw.fetch_p99_ms"] = medianOver(l.rounds, func(r roundStat) float64 { return r.p99ms })
	m["fetch_p99_ms"] = medianOver(l.rounds, func(r roundStat) float64 { return r.p99ms * r.scale })
	m["yardstick.cost_us"] = medianOver(l.rounds, func(r roundStat) float64 { return float64(r.yard) / float64(time.Microsecond) })
	m["cpu_us_per_req"] = l.perReq(func(r roundStat) float64 { return float64(r.cpu.Microseconds()) })
	m["proc.cpu_sys_us_per_req"] = l.perReq(func(r roundStat) float64 { return float64(r.sys.Microseconds()) })
}

// ---- open loop ----

// openLoop sends n requests on a fixed schedule of `rate` per second
// over the same connections and times each from the moment it was due,
// so a stall is charged to every request it delays. It reports how late
// the generator itself ran.
func (l *loader) openLoop(rate float64, d time.Duration) (p50ms, p99ms, lateMaxMs float64) {
	n := int64(rate * d.Seconds())
	gap := time.Duration(float64(time.Second) / rate)
	var claimed atomic.Int64
	lats := make([][]float64, connections())
	lates := make([]float64, connections())
	failed := make([]int, connections())
	t0 := time.Now().Add(10 * time.Millisecond)
	var wg sync.WaitGroup
	for w := range lats {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			v := l.sys.video
			for {
				k := claimed.Add(1) - 1
				if k >= n {
					return
				}
				due := t0.Add(time.Duration(k) * gap)
				time.Sleep(time.Until(due))
				lates[w] = max(lates[w], float64(time.Since(due))/float64(time.Millisecond))
				r := l.list[int(k%int64(len(l.list)))]
				_, err := l.sys.client.FetchChunk(context.Background(), v.ID, int(r.q), int(r.tile), int(r.idx))
				if err != nil {
					failed[w]++
					continue
				}
				lats[w] = append(lats[w], float64(time.Since(due))/float64(time.Millisecond))
			}
		}(w)
	}
	wg.Wait()
	var all []float64
	for w := range lats {
		all = append(all, lats[w]...)
		lateMaxMs = max(lateMaxMs, lates[w])
		l.attempted += len(lats[w]) + failed[w]
		l.failed += failed[w]
	}
	sort.Float64s(all)
	return quantile(all, 0.50), quantile(all, 0.99), lateMaxMs
}

// ---- counts and costs, read from outside ----

// layerCounts reads the store and cluster counters from the registry
// and the public accessors after the warm queue has drained.
func (s *system) layerCounts(m metricSet) {
	if s.clu != nil {
		s.clu.DrainWarms()
	}
	c := func(name string) float64 { return float64(s.reg.Counter(name).Value()) }
	hits, misses := c("serve.store.hits"), c("serve.store.misses")
	m["serve.store.hits"] = hits
	m["serve.store.misses"] = misses
	m["serve.store.evictions"] = c("serve.store.evictions")
	m["serve.store.singleflight_shared"] = c("serve.store.singleflight_shared")
	if hits+misses > 0 {
		m["serve.store.hit_ratio"] = hits / (hits + misses)
	}
	m["serve.store.resident_MB"] = float64(s.store.Bytes()) / 1e6
	m["dash.client.retries"] = c("dash.client.retries")
	if s.clu == nil {
		return
	}
	reqs, fetches := s.clu.OffloadCounts()
	m["cluster.requests"] = float64(reqs)
	m["cluster.origin_fetches"] = float64(fetches)
	if reqs > 0 {
		m["cluster.offload_ratio"] = 1 - float64(fetches)/float64(reqs)
	}
	m["cluster.coalesced"] = float64(s.clu.Coalesced())
	m["cluster.reroutes"] = c("cluster.reroutes")
	m["cluster.sheds"] = c("cluster.sheds")
	m["cluster.warms"] = float64(s.clu.Warms())
	m["cluster.warm_drops"] = float64(s.clu.WarmDrops())
	m["cluster.origin_fallbacks"] = c("cluster.origin_fallbacks")
	var sum, most float64
	nodes := s.clu.Nodes()
	for _, n := range nodes {
		sum += float64(n.Requests())
		most = max(most, float64(n.Requests()))
	}
	if sum > 0 {
		m["cluster.node_req_imbalance"] = most / (sum / float64(len(nodes)))
	}
}

// synthNsPerByte times dash.WriteChunkBody into io.Discard over a
// sample of the workload's keys.
func synthNsPerByte(video *media.Video, list []chunkReq) float64 {
	n := min(len(list), 512)
	var total int64
	start := time.Now()
	for _, r := range list[:n] {
		size, err := dash.ChunkBodyLen(video, int(r.q), int(r.tile), int(r.idx), false)
		if err != nil || dash.WriteChunkBody(io.Discard, video, int(r.q), int(r.tile), int(r.idx), false) != nil {
			return 0
		}
		total += int64(size)
	}
	if total == 0 {
		return 0
	}
	return float64(time.Since(start).Nanoseconds()) / float64(total)
}

// ---- process cost ----

// cpuTimes returns the process's user and system CPU time so far.
func cpuTimes() (user, sys time.Duration) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, 0
	}
	return time.Duration(ru.Utime.Nano()), time.Duration(ru.Stime.Nano())
}

// peakRSSMB returns the process's high-water resident set (Linux
// reports ru_maxrss in KiB).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) * 1024 / 1e6
}

var errNoRounds = errors.New("bench: a round of the timed phase completed no request")
