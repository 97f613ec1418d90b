package dash

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"sperke/internal/media"
	"sperke/internal/tiling"
)

func testVideo() *media.Video {
	return &media.Video{
		ID:             "demo",
		Duration:       20 * time.Second,
		ChunkDuration:  2 * time.Second,
		Grid:           tiling.GridPrototype,
		ProjectionName: "equirectangular",
		Ladder:         media.DefaultLadder,
		Encoding:       media.EncodingSVC,
	}
}

func testServer(t *testing.T) (*httptest.Server, *Catalog) {
	t.Helper()
	cat := NewCatalog()
	if err := cat.Add(testVideo()); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(NewServer(cat))
	t.Cleanup(srv.Close)
	return srv, cat
}

func TestMPDRoundTrip(t *testing.T) {
	v := testVideo()
	m := buildMPD(v)
	data, err := m.marshal()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), "<?xml") {
		t.Fatal("missing XML header")
	}
	got, err := parseMPD(data)
	if err != nil {
		t.Fatal(err)
	}
	if got.VideoID != "demo" || got.Type != "static" {
		t.Fatalf("parsed %+v", got)
	}
	if got.NumChunks() != 10 {
		t.Fatalf("NumChunks = %d, want 10", got.NumChunks())
	}
	if got.Grid() != v.Grid {
		t.Fatalf("grid = %v", got.Grid())
	}
	if got.ChunkMs != 2000 {
		t.Fatalf("chunk duration = %d ms", got.ChunkMs)
	}
	if len(got.Representations) != len(v.Ladder) {
		t.Fatalf("representations = %d", len(got.Representations))
	}
}

func TestParseMPDRejectsGarbage(t *testing.T) {
	cases := map[string]string{
		"not xml":    "hello",
		"no videoId": `<MPD type="static" chunkDurationMs="2000" tileRows="2" tileCols="4"><Representation id="0"/></MPD>`,
		"no chunks":  `<MPD type="static" videoId="x" tileRows="2" tileCols="4"><Representation id="0"/></MPD>`,
		"no grid":    `<MPD type="static" videoId="x" chunkDurationMs="2000"><Representation id="0"/></MPD>`,
		"no reps":    `<MPD type="static" videoId="x" chunkDurationMs="2000" tileRows="2" tileCols="4"></MPD>`,
		"bad type":   `<MPD type="weird" videoId="x" chunkDurationMs="2000" tileRows="2" tileCols="4"><Representation id="0"/></MPD>`,
	}
	for name, data := range cases {
		if _, err := parseMPD([]byte(data)); err == nil {
			t.Errorf("%s accepted", name)
		}
	}
}

func TestCatalogDuplicateAndInvalid(t *testing.T) {
	cat := NewCatalog()
	if err := cat.Add(testVideo()); err != nil {
		t.Fatal(err)
	}
	if err := cat.Add(testVideo()); err == nil {
		t.Fatal("duplicate accepted")
	}
	if err := cat.Add(&media.Video{}); err == nil {
		t.Fatal("invalid video accepted")
	}
	if _, ok := cat.Get("nope"); ok {
		t.Fatal("phantom video")
	}
}

func TestServerServesMPD(t *testing.T) {
	srv, _ := testServer(t)
	c := NewClient(srv.URL)
	m, err := c.FetchMPD(context.Background(), "demo")
	if err != nil {
		t.Fatal(err)
	}
	if m.VideoID != "demo" || m.Encoding != "SVC" {
		t.Fatalf("MPD = %+v", m)
	}
	if _, err := c.FetchMPD(context.Background(), "missing"); err == nil {
		t.Fatal("missing video served")
	}
}

func TestServerServesChunk(t *testing.T) {
	srv, _ := testServer(t)
	c := NewClient(srv.URL)
	v := testVideo()
	res, err := c.FetchChunk(context.Background(), "demo", 2, 5, 3)
	if err != nil {
		t.Fatal(err)
	}
	if res.Header.Quality != 2 || res.Header.Tile != 5 {
		t.Fatalf("header %+v", res.Header)
	}
	if res.Header.Start != 6*time.Second {
		t.Fatalf("start = %v", res.Header.Start)
	}
	want := v.ChunkBytes(2, 5, 6*time.Second)
	if int64(len(res.Payload)) != want {
		t.Fatalf("payload %d bytes, want %d (rate model)", len(res.Payload), want)
	}
	if res.ThroughputBPS <= 0 {
		t.Fatal("no throughput sample")
	}
	if res.WireBytes <= int64(len(res.Payload)) {
		t.Fatal("wire bytes missing header")
	}
}

func TestServerChunkDeterministic(t *testing.T) {
	srv, _ := testServer(t)
	c := NewClient(srv.URL)
	a, err := c.FetchChunk(context.Background(), "demo", 1, 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	b, err := c.FetchChunk(context.Background(), "demo", 1, 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	if string(a.Payload) != string(b.Payload) {
		t.Fatal("same chunk differs across fetches")
	}
}

func TestServerServesSVCLayer(t *testing.T) {
	srv, _ := testServer(t)
	c := NewClient(srv.URL)
	v := testVideo()
	res, err := c.FetchLayer(context.Background(), "demo", 3, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Header.Flags&media.FlagSVCLayer == 0 {
		t.Fatal("layer flag missing")
	}
	want := v.LayerBytes(3, 1, 0)
	if int64(len(res.Payload)) != want {
		t.Fatalf("layer %d bytes, want %d", len(res.Payload), want)
	}
	// A layer is smaller than the corresponding full chunk.
	full, err := c.FetchChunk(context.Background(), "demo", 3, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Payload) >= len(full.Payload) {
		t.Fatal("SVC layer not smaller than full chunk")
	}
}

func TestServerRejectsOutOfRange(t *testing.T) {
	srv, _ := testServer(t)
	c := NewClient(srv.URL)
	ctx := context.Background()
	if _, err := c.FetchChunk(ctx, "demo", 99, 0, 0); err == nil {
		t.Fatal("quality 99 served")
	}
	if _, err := c.FetchChunk(ctx, "demo", 0, 99, 0); err == nil {
		t.Fatal("tile 99 served")
	}
	if _, err := c.FetchChunk(ctx, "demo", 0, 0, 99); err == nil {
		t.Fatal("index 99 served")
	}
	if _, err := c.FetchChunk(ctx, "demo", -1, 0, 0); err == nil {
		t.Fatal("negative quality served")
	}
}

func TestServerLayerOnAVCVideoRejected(t *testing.T) {
	cat := NewCatalog()
	v := testVideo()
	v.ID = "avc-video"
	v.Encoding = media.EncodingAVC
	if err := cat.Add(v); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(NewServer(cat))
	defer srv.Close()
	c := NewClient(srv.URL)
	if _, err := c.FetchLayer(context.Background(), "avc-video", 1, 0, 0); err == nil {
		t.Fatal("SVC layer served from AVC video")
	}
}

func TestServerListsCatalog(t *testing.T) {
	srv, cat := testServer(t)
	v2 := testVideo()
	v2.ID = "another"
	if err := cat.Add(v2); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get(srv.URL + "/v")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	got := strings.Fields(string(body))
	want := []string{"another", "demo"}
	if len(got) != 2 || got[0] != want[0] || got[1] != want[1] {
		t.Fatalf("catalog list = %v, want %v", got, want)
	}
}

func TestServerConcurrentClients(t *testing.T) {
	// Many viewers fetch MPDs and chunks in parallel while videos are
	// added to the catalog — its locking must hold up (run under -race).
	srv, cat := testServer(t)
	c := NewClient(srv.URL)
	done := make(chan error, 16)
	for g := 0; g < 8; g++ {
		g := g
		go func() {
			for i := 0; i < 20; i++ {
				if _, err := c.FetchMPD(context.Background(), "demo"); err != nil {
					done <- err
					return
				}
				if _, err := c.FetchChunk(context.Background(), "demo", g%3, i%8, i%10); err != nil {
					done <- err
					return
				}
			}
			done <- nil
		}()
	}
	go func() {
		for i := 0; i < 50; i++ {
			v := testVideo()
			v.ID = fmt.Sprintf("added-%d", i)
			if err := cat.Add(v); err != nil {
				done <- err
				return
			}
		}
		done <- nil
	}()
	for i := 0; i < 9; i++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
}

func TestClientContextCancellation(t *testing.T) {
	srv, _ := testServer(t)
	c := NewClient(srv.URL)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := c.FetchChunk(ctx, "demo", 0, 0, 0); err == nil {
		t.Fatal("cancelled context fetched a chunk")
	}
	if _, err := c.FetchMPD(ctx, "demo"); err == nil {
		t.Fatal("cancelled context fetched an MPD")
	}
}
