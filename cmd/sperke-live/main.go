// Command sperke-live runs the whole live 360° broadcast pipeline of
// §3.4 over real loopback TCP: a broadcaster pushes segments through the
// RTMP-like ingest protocol (optionally shaped to emulate a constrained
// uplink), the server re-packages them into a live DASH window, and a
// viewer polls the manifest and fetches chunks over HTTP, measuring
// end-to-end latency exactly as the paper does (T2 − T1).
//
// Usage:
//
//	sperke-live                      # 10 s broadcast, unshaped
//	sperke-live -uplink 2            # shape the uplink to 2 Mbit/s
//	sperke-live -duration 30s
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	_ "net/http/pprof"
	"os"
	"sync"
	"time"

	"sperke/internal/dash"
	"sperke/internal/faults"
	"sperke/internal/media"
	"sperke/internal/netem"
	"sperke/internal/obs"
	"sperke/internal/rtmp"
	"sperke/internal/tiling"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

func run() error {
	dur := flag.Duration("duration", 10*time.Second, "broadcast duration")
	uplinkMbps := flag.Float64("uplink", 0, "uplink shaping in Mbit/s (0 = unshaped)")
	segment := flag.Duration("segment", 500*time.Millisecond, "segment duration")
	faultErrors := flag.Int("fault-errors", 0, "inject this many 502 responses on chunk fetches")
	faultTruncate := flag.Int("fault-truncate", 0, "truncate this many chunk response bodies mid-flight")
	faultSeed := flag.Int64("fault-seed", 42, "fault injection seed")
	debugAddr := flag.String("debug-addr", "", "listen address for pprof/expvar debug endpoints (empty = disabled)")
	flag.Parse()

	log := slog.New(slog.NewTextHandler(os.Stderr, &slog.HandlerOptions{Level: slog.LevelWarn}))

	reg := obs.Default()
	reg.PublishExpvar("sperke")
	if *debugAddr != "" {
		// pprof registers on http.DefaultServeMux via its import; a side
		// port keeps the debug surface off the pipeline's listeners.
		go http.ListenAndServe(*debugAddr, nil)
	}

	video := &media.Video{
		ID:             "live",
		Duration:       *dur,
		ChunkDuration:  *segment,
		Grid:           tiling.GridPrototype,
		ProjectionName: "equirectangular",
		Ladder:         media.LiveLadder,
		Encoding:       media.EncodingAVC,
	}
	catalog := dash.NewCatalog()
	if err := catalog.Add(video); err != nil {
		return err
	}

	// --- server: RTMP ingest feeding the live DASH window ---
	captureAt := make(map[int]time.Time) // segment index → capture wall time
	var mu sync.Mutex
	last := -1
	ingest := &rtmp.Server{
		Log: log,
		OnSegment: func(stream string, at time.Time, ts time.Duration, h media.SegmentHeader, payload []byte) {
			idx := int(h.Start / *segment)
			mu.Lock()
			if idx > last {
				last = idx
				catalog.SetLiveWindow(video.ID, 0, last)
			}
			mu.Unlock()
		},
	}
	ingestLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	go ingest.Serve(ingestLn)
	defer ingest.Close()

	dashLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	// Optional server-side chaos: a deterministic burst of 5xx responses
	// and truncated bodies on the chunk route, which the viewer's
	// resilient client must absorb.
	dashSrv := dash.NewServer(catalog, dash.WithLogger(log), dash.WithObs(reg))
	var handler http.Handler = dashSrv
	var injector *faults.Injector
	if *faultErrors > 0 || *faultTruncate > 0 {
		var rules []faults.Rule
		if *faultErrors > 0 {
			rules = append(rules, faults.Rule{
				PathContains: "/c/", ErrorProb: 1,
				ErrorStatus: http.StatusBadGateway, MaxCount: *faultErrors,
			})
		}
		if *faultTruncate > 0 {
			rules = append(rules, faults.Rule{
				PathContains: "/c/", TruncateProb: 1, MaxCount: *faultTruncate,
			})
		}
		injector = faults.NewInjector(*faultSeed, rules...)
		handler = injector.Wrap(handler)
	}
	httpSrv := dash.NewHTTPServer(handler)
	go httpSrv.Serve(dashLn)
	defer httpSrv.Close()

	// --- broadcaster: capture → (shaped) upload ---
	conn, err := net.Dial("tcp", ingestLn.Addr().String())
	if err != nil {
		return err
	}
	var up net.Conn = conn
	if *uplinkMbps > 0 {
		up = netem.NewRateLimitedConn(conn, *uplinkMbps*1e6, 0)
	}
	pub, err := rtmp.NewPublisher(up, video.ID)
	if err != nil {
		return err
	}

	nSegs := int(*dur / *segment)
	go func() {
		defer pub.Close()
		start := time.Now()
		perTileBytes := video.ChunkBytes(len(video.Ladder)-1, 0, 0)
		for i := 0; i < nSegs; i++ {
			// Real-time pacing: the scene for segment i exists only after
			// (i+1)·segment of wall time.
			target := start.Add(time.Duration(i+1) * *segment)
			time.Sleep(time.Until(target))
			mu.Lock()
			captureAt[i] = time.Now()
			mu.Unlock()
			for tile := tiling.TileID(0); int(tile) < video.Grid.Tiles(); tile++ {
				h := media.SegmentHeader{
					VideoID:  video.ID,
					Quality:  len(video.Ladder) - 1,
					Flags:    media.FlagLive,
					Tile:     tile,
					Start:    time.Duration(i) * *segment,
					Duration: *segment,
				}
				payload := media.SyntheticPayload(uint64(i)<<16|uint64(tile), int(perTileBytes))
				if err := pub.SendSegment(h.Start, h, payload); err != nil {
					log.Warn("broadcast send", "err", err)
					return
				}
			}
		}
	}()

	// --- viewer: poll the MPD, fetch new chunks, record E2E latency ---
	client := dash.NewClient("http://"+dashLn.Addr().String(), dash.WithClientObs(reg))
	fmt.Printf("live broadcast: %d segments of %v, uplink %s\n",
		nSegs, *segment, shapingLabel(*uplinkMbps))
	fetched, attempts := 0, 0
	var latencies []time.Duration
	deadline := time.Now().Add(*dur + 30*time.Second)
	for fetched < nSegs && time.Now().Before(deadline) {
		mpd, err := client.FetchMPD(context.Background(), video.ID)
		if err != nil || mpd.Type != "dynamic" {
			time.Sleep(50 * time.Millisecond)
			continue
		}
		for fetched <= mpd.LastChunk {
			res, err := client.FetchChunk(context.Background(), video.ID, 0, 0, fetched)
			if err != nil {
				// An exhausted fetch still spent attempts; the next poll
				// round re-requests the same segment.
				var derr *dash.Error
				if errors.As(err, &derr) {
					attempts += derr.Attempts
				}
				break
			}
			attempts += res.Attempts
			displayed := time.Now()
			mu.Lock()
			cap, ok := captureAt[fetched]
			mu.Unlock()
			if ok {
				lat := displayed.Sub(cap)
				latencies = append(latencies, lat)
				fmt.Printf("  segment %2d  E2E latency %7.0f ms\n", fetched, float64(lat.Milliseconds()))
			}
			fetched++
		}
		time.Sleep(*segment / 4)
	}
	if len(latencies) == 0 {
		return fmt.Errorf("no segments delivered")
	}
	var sum time.Duration
	for _, l := range latencies {
		sum += l
	}
	fmt.Printf("mean E2E latency: %.0f ms over %d segments\n",
		float64(sum.Milliseconds())/float64(len(latencies)), len(latencies))
	if injector != nil {
		st := injector.Stats()
		fmt.Printf("faults absorbed: %d errors, %d truncations (%d fetch attempts for %d segments)\n",
			st.Errors, st.Truncations, attempts, fetched)
	}
	if fetched < nSegs {
		return fmt.Errorf("delivered %d of %d segments", fetched, nSegs)
	}
	return nil
}

func shapingLabel(mbps float64) string {
	if mbps <= 0 {
		return "unshaped"
	}
	return fmt.Sprintf("%.1f Mbit/s", mbps)
}
