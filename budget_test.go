// Package sperke_bench holds what no single package can state about
// itself: the margin a warm fetch keeps over net/http's own floor, which
// takes dash and serve together, and the rule that every Benchmark* in
// the module has an allocation budget beside it. The budgets themselves
// are ordinary tests next to the code they constrain; wall-clock claims
// go through bench/ (see DESIGN.md, "Where a budget lives").
package sperke_bench

import (
	"context"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io"
	"io/fs"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"strings"
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

// loopbackRig is what BenchmarkBareExchange and TestFetchAllocsOverFloor
// compare on one listener each, all real loopback TCP: the least a
// net/http exchange of a body costs — a handler that writes the bytes
// under their Content-Length, a client that reads them into a buffer
// the caller keeps — a warm Sperke fetch of the same bytes: routing,
// catalog, resident store hit, dash.Client, segment decode and CRC —
// and the same fetch through a wire cluster's front door, which is that
// exchange twice (client to router, router to the edge that owns the
// chunk) with the router's walk and relay between them.
type loopbackRig struct {
	bare    func() error // one bare exchange
	fetch   func() error // one warm dash.Client.FetchChunk
	proxied func() error // one warm FetchChunk through a 3-edge wire cluster
	size    int          // the body all three move
	close   func()
}

func newLoopbackRig(tb testing.TB) loopbackRig {
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
	clu, err := cluster.New(store, cluster.WithWire(true), cluster.WithNodes(3), cluster.WithCatalog(catalog))
	if err != nil {
		tb.Fatal(err)
	}
	frontSrv := httptest.NewServer(clu.FrontDoor())
	frontTr := &http.Transport{}
	frontClient := dash.NewClient(frontSrv.URL, dash.WithTransport(frontTr))
	ctx := context.Background()
	fetch := func(c *dash.Client) func() error {
		return func() error {
			res, err := c.FetchChunk(ctx, v.ID, q, 0, 0)
			if err == nil && res.WireBytes != int64(len(body)) {
				err = fmt.Errorf("WireBytes = %d, want %d", res.WireBytes, len(body))
			}
			return err
		}
	}
	return loopbackRig{
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
		fetch:   fetch(client),
		proxied: fetch(frontClient),
		close: func() {
			for _, tr := range []*http.Transport{bareTr, sperkeTr, frontTr} {
				tr.CloseIdleConnections()
			}
			for _, name := range clu.NodeNames() {
				_ = clu.RemoveNode(name) // closes the node's listener
			}
			clu.Close()
			for _, srv := range []*httptest.Server{bareSrv, sperkeSrv, frontSrv} {
				srv.Close()
			}
		},
	}
}

// BenchmarkBareExchange is the floor under every serving number in
// bench/: what net/http itself spends, in time and in
// allocations, moving a chunk-sized body across loopback once. What a
// Sperke fetch costs above it is Sperke's; the rest moves with the Go
// release.
func BenchmarkBareExchange(b *testing.B) {
	p := newLoopbackRig(b)
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

// TestFetchAllocsOverFloor: a warm FetchChunk allocates at most 8
// objects more than the bare exchange measured beside it, and one
// proxied through a wire cluster at least 44 fewer than two of them, so
// a Go upgrade that moves net/http's own count moves all three and the
// margins stay Sperke's. (At go1.24: 67, 71 and 88.)
func TestFetchAllocsOverFloor(t *testing.T) {
	if obs.RaceEnabled {
		t.Skip("net/http pools its buffers, and race-mode sync.Pool drops Puts at random")
	}
	p := newLoopbackRig(t)
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
	floor, fetch, proxied := run("bare exchange", p.bare), run("warm fetch", p.fetch), run("proxied fetch", p.proxied)
	t.Logf("bare exchange %.0f allocs, warm fetch %.0f, proxied fetch %.0f", floor, fetch, proxied)
	if fetch > floor+8 {
		t.Fatalf("a warm fetch allocates %.0f objects, %.0f over the bare exchange's %.0f; want at most 8 over", fetch, fetch-floor, floor)
	}
	if proxied > 2*floor-44 {
		t.Fatalf("a proxied fetch allocates %.0f objects against two bare exchanges' %.0f; want at least 44 fewer", proxied, 2*floor)
	}
}

// TestFetchWritesOverFloor: the write syscalls of each exchange of the
// rig are literals, and so are the bytes read() and write() move. A bare
// exchange and a warm fetch write 3 times: the request once, and the
// 33 KB response twice, since net/http flushes its 4 KiB buffer and then
// writes the rest. A proxied fetch writes 4: two requests, the front
// door's head with what the hop's reader took of the body, and the wire
// edge's head and body in one writev; the rest of the body crosses the
// router by splice(2), which is no write. Every byte one side writes the
// other reads, so each exchange reads and writes its body and a fixed
// count more — the requests and the heads: 215 bytes bare, 234 warm, and
// proxied at most 1.5 KiB, with the part of the body the hop's reader
// took (a copy per byte through the router was a second body). Reads
// depend on how the bytes arrive, so they are logged and bounded. The
// counts are the process's syscw, syscr, wchar and rchar from
// /proc/self/io, so the test skips where that cannot be read.
func TestFetchWritesOverFloor(t *testing.T) {
	if _, err := procIO(); err != nil {
		t.Skipf("no per-process syscall counts: %v", err)
	}
	p := newLoopbackRig(t)
	defer p.close()
	const n = 200
	for _, tc := range []struct {
		name     string
		exchange func() error
		writes   int64
		maxReads int64
		overBody int64 // bytes each exchange reads and writes past its body
		exact    bool  // overBody is the count, not a bound
	}{
		{"bare exchange", p.bare, 3, 6, 215, true},
		{"warm fetch", p.fetch, 3, 6, 234, true},
		{"proxied fetch", p.proxied, 4, 11, 1536, false},
	} {
		if err := tc.exchange(); err != nil { // dial, fill the store
			t.Fatal(err)
		}
		before, err := procIO()
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < n; i++ {
			if err := tc.exchange(); err != nil {
				t.Fatalf("%s: %v", tc.name, err)
			}
		}
		after, err := procIO()
		if err != nil {
			t.Fatal(err)
		}
		writes, reads := after.syscw-before.syscw, float64(after.syscr-before.syscr)/n
		body := int64(p.size) * n
		wchar, rchar := after.wchar-before.wchar-body, after.rchar-before.rchar-body
		t.Logf("%s: %d writes and %.2f reads each; %.2f and %.2f bytes past the %d-byte body written and read", tc.name, writes/n, reads, float64(wchar)/n, float64(rchar)/n, p.size)
		// The runtime writes too, to wake its network poller when a new
		// deadline is due before the one it sleeps to: a few times a run,
		// a few dozen under -race. One write more per exchange is n more.
		// Each wake-up is a read on the poller's side, so reads get the
		// same slack.
		if writes < tc.writes*n || writes >= tc.writes*n+n/4 {
			t.Errorf("%s: %d writes in %d exchanges, want %d each", tc.name, writes, n, tc.writes)
		}
		if after.syscr-before.syscr > tc.maxReads*n+n/4 {
			t.Errorf("%s: %.2f reads per exchange, want at most %d", tc.name, reads, tc.maxReads)
		}
		// Each of those wake-ups moves 8 bytes each way, and the first
		// procIO's own read, a few hundred bytes, lands in rchar.
		const slack = n/4*8 + 512
		switch {
		case max(wchar, rchar) > tc.overBody*n+slack:
			t.Errorf("%s: %.2f bytes written and %.2f read past the body per exchange, want at most %d", tc.name, float64(wchar)/n, float64(rchar)/n, tc.overBody)
		case tc.exact && min(wchar, rchar) < tc.overBody*n:
			t.Errorf("%s: %.2f bytes written and %.2f read past the body per exchange, want %d", tc.name, float64(wchar)/n, float64(rchar)/n, tc.overBody)
		}
	}
}

// ioCounts is the process's read and write syscalls and the bytes they
// moved, from /proc/self/io.
type ioCounts struct{ syscr, syscw, rchar, wchar int64 }

// procIO reads the process's syscall and byte counts.
func procIO() (ioCounts, error) {
	var c ioCounts
	b, err := os.ReadFile("/proc/self/io")
	if err != nil {
		return c, err
	}
	found := 0
	for _, line := range strings.Split(string(b), "\n") {
		name, value, _ := strings.Cut(line, ": ")
		var dst *int64
		switch name {
		case "syscr":
			dst = &c.syscr
		case "syscw":
			dst = &c.syscw
		case "rchar":
			dst = &c.rchar
		case "wchar":
			dst = &c.wchar
		default:
			continue
		}
		if *dst, err = strconv.ParseInt(value, 10, 64); err != nil {
			return c, err
		}
		found++
	}
	if found != 4 {
		return c, fmt.Errorf("/proc/self/io lacks a syscr, syscw, rchar or wchar line")
	}
	return c, nil
}

// TestEveryBenchmarkHasABudget: a Benchmark* function stays in the
// module only while a test beside it runs the same body under
// testing.AllocsPerRun — both take their workload from one unexported
// function of the package's test files. A benchmark nothing holds to a
// number is a reading nobody takes: delete it or give it a budget.
func TestEveryBenchmarkHasABudget(t *testing.T) {
	// directory → function of its test files → the identifiers in its body
	funcs := map[string]map[string]map[string]bool{}
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil || path == "." {
			return err
		}
		if d.IsDir() && (path == "bench" || d.Name()[0] == '.' || d.Name() == "testdata") {
			return filepath.SkipDir // its own module; not Go packages
		}
		if d.IsDir() || !strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		dir := filepath.Dir(path)
		if funcs[dir] == nil {
			funcs[dir] = map[string]map[string]bool{}
		}
		for _, decl := range f.Decls {
			if fn, ok := decl.(*ast.FuncDecl); ok && fn.Recv == nil && fn.Body != nil {
				idents := map[string]bool{}
				ast.Inspect(fn.Body, func(n ast.Node) bool {
					if id, ok := n.(*ast.Ident); ok {
						idents[id.Name] = true
					}
					return true
				})
				funcs[dir][fn.Name.Name] = idents
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for dir, fns := range funcs {
		for name, idents := range fns {
			if !strings.HasPrefix(name, "Benchmark") {
				continue
			}
			budgeted := false
			for test, testIdents := range fns {
				shared := false
				for id := range idents {
					shared = shared || fns[id] != nil && testIdents[id]
				}
				budgeted = budgeted || strings.HasPrefix(test, "Test") && testIdents["AllocsPerRun"] && shared
			}
			if !budgeted {
				t.Errorf("%s: %s shares no body with a test that calls testing.AllocsPerRun", dir, name)
			}
		}
	}
}
