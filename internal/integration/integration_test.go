// Package integration exercises Sperke's real-network substrates end to
// end over loopback: the RTMP-like ingest feeding a live DASH window, a
// polling HTTP viewer, and the rate shaper standing in for `tc`
// (§3.4.1's measurement toolchain). These are the wire paths the
// simulation-based experiments abstract; here they run for real, with
// sub-second parameters so the suite stays fast.
package integration

import (
	"bytes"
	"context"
	"net"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"sperke/internal/dash"
	"sperke/internal/media"
	"sperke/internal/netem"
	"sperke/internal/rtmp"
	"sperke/internal/serve"
	"sperke/internal/tiling"
)

func liveVideo(segment time.Duration, n int) *media.Video {
	return &media.Video{
		ID:             "it-live",
		Duration:       time.Duration(n) * segment,
		ChunkDuration:  segment,
		Grid:           tiling.GridPrototype,
		ProjectionName: "equirectangular",
		Ladder:         media.LiveLadder,
		Encoding:       media.EncodingAVC,
	}
}

// TestLivePipelineOverLoopback runs broadcaster → RTMP ingest → live
// DASH window → HTTP viewer on real sockets and checks ordering,
// integrity and that E2E latency is sane.
func TestLivePipelineOverLoopback(t *testing.T) {
	const segment = 100 * time.Millisecond
	const nSegs = 8
	video := liveVideo(segment, nSegs)
	catalog := dash.NewCatalog()
	if err := catalog.Add(video); err != nil {
		t.Fatal(err)
	}

	var mu sync.Mutex
	captureAt := map[int]time.Time{}
	last := -1
	ingest := &rtmp.Server{
		OnSegment: func(stream string, at time.Time, ts time.Duration, h media.SegmentHeader, payload []byte) {
			idx := int(h.Start / segment)
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
		t.Fatal(err)
	}
	go ingest.Serve(ingestLn)
	defer ingest.Close()

	httpSrv := httptest.NewServer(dash.NewServer(catalog))
	defer httpSrv.Close()

	// Broadcaster.
	conn, err := net.Dial("tcp", ingestLn.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	pub, err := rtmp.NewPublisher(conn, video.ID)
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		defer pub.Close()
		start := time.Now()
		for i := 0; i < nSegs; i++ {
			time.Sleep(time.Until(start.Add(time.Duration(i+1) * segment)))
			mu.Lock()
			captureAt[i] = time.Now()
			mu.Unlock()
			h := media.SegmentHeader{
				VideoID: video.ID, Quality: 2, Flags: media.FlagLive,
				Tile: 0, Start: time.Duration(i) * segment, Duration: segment,
			}
			if err := pub.SendSegment(h.Start, h, media.SyntheticPayload(uint64(i), 2000)); err != nil {
				t.Errorf("send segment %d: %v", i, err)
				return
			}
		}
	}()

	// Viewer.
	client := dash.NewClient(httpSrv.URL)
	fetched := 0
	deadline := time.Now().Add(10 * time.Second)
	var worst time.Duration
	for fetched < nSegs && time.Now().Before(deadline) {
		mpd, err := client.FetchMPD(context.Background(), video.ID)
		if err != nil || mpd.Type != "dynamic" {
			time.Sleep(10 * time.Millisecond)
			continue
		}
		for fetched <= mpd.LastChunk {
			res, err := client.FetchChunk(context.Background(), video.ID, 2, 0, fetched)
			if err != nil {
				t.Fatalf("fetch chunk %d: %v", fetched, err)
			}
			if res.Header.Start != time.Duration(fetched)*segment {
				t.Fatalf("chunk %d has start %v", fetched, res.Header.Start)
			}
			mu.Lock()
			cap, ok := captureAt[fetched]
			mu.Unlock()
			if ok {
				if lat := time.Since(cap); lat > worst {
					worst = lat
				}
			}
			fetched++
		}
		time.Sleep(segment / 4)
	}
	if fetched != nSegs {
		t.Fatalf("viewer got %d/%d segments", fetched, nSegs)
	}
	// On loopback with 100 ms segments, E2E latency must stay well under
	// a second.
	if worst > 2*time.Second {
		t.Fatalf("worst E2E latency %v on loopback", worst)
	}
}

// TestShapedIngestSlowsDelivery verifies the rate shaper constrains a
// real RTMP upload the way `tc` does in the paper's testbed.
func TestShapedIngestSlowsDelivery(t *testing.T) {
	run := func(bps float64) time.Duration {
		received := make(chan time.Time, 1)
		srv := &rtmp.Server{
			OnSegment: func(stream string, at time.Time, ts time.Duration, h media.SegmentHeader, payload []byte) {
				select {
				case received <- time.Now():
				default:
				}
			},
		}
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		go srv.Serve(ln)
		defer srv.Close()

		conn, err := net.Dial("tcp", ln.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		var up net.Conn = conn
		if bps > 0 {
			up = netem.NewRateLimitedConn(conn, bps, 8<<10)
		}
		pub, err := rtmp.NewPublisher(up, "s")
		if err != nil {
			t.Fatal(err)
		}
		defer pub.Close()
		start := time.Now()
		// 200 KB segment: ~0.4 s at 4 Mbit/s, instant unshaped.
		h := media.SegmentHeader{VideoID: "s", Quality: 1}
		if err := pub.SendSegment(0, h, media.SyntheticPayload(9, 200<<10)); err != nil {
			t.Fatal(err)
		}
		select {
		case at := <-received:
			return at.Sub(start)
		case <-time.After(10 * time.Second):
			t.Fatal("segment never arrived")
			return 0
		}
	}
	unshaped := run(0)
	shaped := run(4e6)
	if shaped < unshaped+100*time.Millisecond {
		t.Fatalf("shaping had no effect: unshaped %v, shaped %v", unshaped, shaped)
	}
	if shaped < 300*time.Millisecond {
		t.Fatalf("200KB at 4Mbit/s arrived in %v — shaper too permissive", shaped)
	}
}

// TestDashClientEndToEndSVC walks the full VOD path a Sperke client
// takes: fetch the MPD, derive geometry, fetch base + enhancement
// layers of a chunk, and verify the layered sizes follow the §3.1.1
// model.
func TestDashClientEndToEndSVC(t *testing.T) {
	video := &media.Video{
		ID:             "it-vod",
		Duration:       10 * time.Second,
		ChunkDuration:  2 * time.Second,
		Grid:           tiling.GridCellular,
		ProjectionName: "equirectangular",
		Ladder:         media.DefaultLadder,
		Encoding:       media.EncodingSVC,
	}
	catalog := dash.NewCatalog()
	if err := catalog.Add(video); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(dash.NewServer(catalog))
	defer srv.Close()
	client := dash.NewClient(srv.URL)

	mpd, err := client.FetchMPD(context.Background(), video.ID)
	if err != nil {
		t.Fatal(err)
	}
	if mpd.Grid() != video.Grid || mpd.Encoding != "SVC" {
		t.Fatalf("MPD mismatch: %+v", mpd)
	}

	// Fetch layers 0..2 of one tile-chunk and compare with the q2 chunk
	// from the plain route, which serves an SVC video's single-layer AVC
	// copy (the other form a §3.1.2 hybrid session fetches).
	var layered int64
	for layer := 0; layer <= 2; layer++ {
		res, err := client.FetchLayer(context.Background(), video.ID, layer, 3, 1)
		if err != nil {
			t.Fatalf("layer %d: %v", layer, err)
		}
		if res.Header.Flags&media.FlagSVCLayer == 0 {
			t.Fatalf("layer %d missing flag", layer)
		}
		layered += int64(len(res.Payload))
	}
	whole, err := client.FetchChunk(context.Background(), video.ID, 2, 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	// Cumulative layers exceed the single-layer chunk by the SVC
	// overhead, bounded by ~(1+overhead).
	if layered <= int64(len(whole.Payload)) {
		t.Fatalf("layers %d not above single-layer %d", layered, len(whole.Payload))
	}
	if float64(layered) > float64(len(whole.Payload))*1.2 {
		t.Fatalf("layers %d exceed overhead bound over %d", layered, len(whole.Payload))
	}
}

// TestSegmentIntegrityOverHTTP re-decodes a fetched segment byte stream
// to prove the wire format survives the HTTP transport unchanged.
func TestSegmentIntegrityOverHTTP(t *testing.T) {
	video := liveVideo(2*time.Second, 5)
	catalog := dash.NewCatalog()
	if err := catalog.Add(video); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(dash.NewServer(catalog))
	defer srv.Close()

	resp, err := http.Get(srv.URL + "/v/it-live/c/1/2/3")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	h, payload, err := media.ReadSegment(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if h.VideoID != "it-live" || h.Quality != 1 || h.Tile != 2 {
		t.Fatalf("header %+v", h)
	}
	want := video.ChunkBytes(1, 2, 6*time.Second)
	if int64(len(payload)) != want {
		t.Fatalf("payload %d bytes, want %d", len(payload), want)
	}
	// Deterministic content: a second fetch is byte-identical.
	resp2, err := http.Get(srv.URL + "/v/it-live/c/1/2/3")
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	_, payload2, err := media.ReadSegment(resp2.Body)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(payload, payload2) {
		t.Fatal("same chunk differs across fetches")
	}
}

// TestSessionTracesNegativeDuration: serve.SessionTraces does not
// validate the video it is handed, and asks trace.Generate for ten
// seconds more than the video lasts; a duration below -10 s used to
// reach make with a negative capacity and panic. It now yields the
// single t=0 sample per session.
func TestSessionTracesNegativeDuration(t *testing.T) {
	v := liveVideo(time.Second, 4)
	v.Duration = -time.Minute
	traces := serve.SessionTraces(serve.EngineConfig{Video: v, Sessions: 3, BaseSeed: 7})
	if len(traces) != 3 {
		t.Fatalf("%d traces, want 3", len(traces))
	}
	for i, h := range traces {
		if len(h.Samples) != 1 || h.Samples[0].At != 0 {
			t.Fatalf("session %d: %d samples, want the t=0 sample alone", i, len(h.Samples))
		}
	}
}
