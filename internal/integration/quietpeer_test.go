package integration

import (
	"errors"
	"io"
	"net"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"sperke/internal/cluster"
	"sperke/internal/dash"
	"sperke/internal/serve"
)

// TestQuietPeerIsHungUpOn: a peer that connects, sends half a request
// line and goes quiet is dropped once the header limit,
// dash.ReadHeaderTimeout, runs out — on the origin's listener as
// sperke-server builds it with dash.NewHTTPServer and on a wire node's
// connection loop alike — and the goroutine that served it goes with
// it. A zero http.Server keeps both for as long as the process lives.
// The limit is waited out in real time, so -short skips it.
func TestQuietPeerIsHungUpOn(t *testing.T) {
	if testing.Short() {
		t.Skip("waits out the five-second header limit")
	}
	video := liveVideo(2*time.Second, 5)
	catalog := dash.NewCatalog()
	if err := catalog.Add(video); err != nil {
		t.Fatal(err)
	}
	store := serve.NewCatalogStore(catalog, serve.StoreConfig{BudgetBytes: 8 << 20})

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	origin := dash.NewHTTPServer(dash.NewServer(catalog, dash.WithStore(store)))
	go origin.Serve(ln)
	defer origin.Close()

	clu, err := cluster.New(store, cluster.WithNodes(1), cluster.WithWire(true), cluster.WithCatalog(catalog))
	if err != nil {
		t.Fatal(err)
	}
	defer clu.Close()

	before := servingGoroutines()
	// The limit is five seconds; a quiet peer must be gone within eight,
	// and not before one (a server that hangs up on every half-sent
	// request at once would pass for the wrong reason).
	const atLeast, atMost = time.Second, 8 * time.Second
	var wg sync.WaitGroup
	for name, addr := range map[string]string{"origin": ln.Addr().String(), "wire node": clu.Node("edge-0").Addr()} {
		wg.Add(1)
		go func() {
			defer wg.Done()
			conn, err := net.Dial("tcp", addr)
			if err != nil {
				t.Errorf("%s: %v", name, err)
				return
			}
			defer conn.Close()
			start := time.Now()
			if _, err := io.WriteString(conn, "GET /v/it-li"); err != nil {
				t.Errorf("%s: %v", name, err)
				return
			}
			conn.SetReadDeadline(start.Add(atMost))
			// The server may say 400 on its way out; what matters is that
			// the stream ends.
			_, err = io.ReadAll(conn)
			var nerr net.Error
			if errors.As(err, &nerr) && nerr.Timeout() {
				t.Errorf("%s: still holding a half-sent request after %v", name, atMost)
			} else if held := time.Since(start); held < atLeast {
				t.Errorf("%s: hung up after %v, before any limit could have run out", name, held)
			}
		}()
	}
	// While the limit runs, each peer holds one serving goroutine; a count
	// that missed either kind would find nothing to wait for below. Both
	// are held until the limit, so each has until a second before it to
	// appear: under -race on a busy host one can take longer than a second.
	deadline := time.Now().Add(dash.ReadHeaderTimeout - time.Second)
	for servingGoroutines() < before+2 {
		if time.Now().After(deadline) {
			t.Errorf("connection goroutines %d -> %d with two quiet peers connected, want +2", before, servingGoroutines())
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	wg.Wait()

	deadline = time.Now().Add(3 * time.Second)
	for servingGoroutines() > before {
		if time.Now().After(deadline) {
			t.Fatalf("connection goroutines %d -> %d after both peers were dropped", before, servingGoroutines())
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// servingGoroutines counts the goroutines serving a connection — net/http's
// for the origin, the cluster's connection loop for a wire node —
// whoever else in the process is running.
func servingGoroutines() int {
	buf := make([]byte, 1<<20)
	stacks := string(buf[:runtime.Stack(buf, true)])
	return strings.Count(stacks, "net/http.(*conn).serve(") + strings.Count(stacks, "sperke/internal/cluster.(*edgeConn).serve(")
}
