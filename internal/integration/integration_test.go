// Package integration exercises Sperke's substrates across package
// lines: the DASH origin and client over real loopback HTTP (the VOD and
// SVC layer paths, segment integrity, 502 bursts and truncated bodies a
// resilient client absorbs, a quiet peer hung up on), and the simulated
// live broadcast and chunk sessions under scripted fault plans. Every
// run uses sub-second or sim-clock parameters so the suite stays fast.
package integration

import (
	"bytes"
	"context"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"sperke/internal/dash"
	"sperke/internal/media"
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
