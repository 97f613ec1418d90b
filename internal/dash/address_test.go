package dash

import (
	"bytes"
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"

	"sperke/internal/media"
	"sperke/internal/tiling"
)

// idVideo is the test video under another name.
func idVideo(id string) *media.Video {
	v := testVideo()
	v.ID = id
	return v
}

// checkChunkIs fails unless res is exactly chunk (or layer) q/tile/idx
// of v.
func checkChunkIs(t *testing.T, res FetchResult, v *media.Video, q, tile, idx int, layer bool) {
	t.Helper()
	want, err := BuildChunkBody(v, q, tile, idx, layer)
	if err != nil {
		t.Fatal(err)
	}
	h, payload, err := media.ReadSegment(bytes.NewReader(want))
	if err != nil {
		t.Fatal(err)
	}
	if res.Header != h {
		t.Fatalf("fetched header %+v, want %+v", res.Header, h)
	}
	if !bytes.Equal(res.Payload, payload) {
		t.Fatalf("payload of %q %d/%d/%d differs from the built body", v.ID, q, tile, idx)
	}
}

// TestVideoIDsTravelEscaped: whatever the catalog accepts as an ID, a
// client can fetch under — chunk, layer and manifest — through a real
// listener, with the ID coming back in the segment header byte for
// byte; and what no escaping could serve, the catalog refuses. Pasted
// raw into the URL, "x/y" and "a%2Fb" 404, "50%" fails URL parsing,
// "q?layer=1" and "h#frag" ask for some other path.
func TestVideoIDsTravelEscaped(t *testing.T) {
	ids := []string{
		"x/y", "50%", "q?layer=1", "h#frag", "a%2Fb",
		"a b", "demo/c/0/0/0", "../demo", "...", "%2e%2e", "ünï/côdé", "semi;colon,comma", "\x00\n\xff",
		strings.Repeat("k", 255), strings.Repeat("/", 255),
	}
	cat := NewCatalog()
	if err := cat.Add(testVideo()); err != nil { // "demo": the chunk a mangled path would fetch instead
		t.Fatal(err)
	}
	for _, id := range ids {
		if err := cat.Add(idVideo(id)); err != nil {
			t.Fatalf("Add(%q): %v", id, err)
		}
	}
	srv := httptest.NewServer(NewServer(cat))
	defer srv.Close()
	c := NewClient(srv.URL, WithRetry(RetryPolicy{MaxAttempts: -1}))
	ctx := context.Background()
	for _, id := range ids {
		v := idVideo(id)
		res, err := c.FetchChunk(ctx, id, 1, 2, 3)
		if err != nil {
			t.Fatalf("FetchChunk(%q): %v", id, err)
		}
		checkChunkIs(t, res, v, 1, 2, 3, false)
		if res, err = c.FetchLayer(ctx, id, 1, 2, 3); err != nil {
			t.Fatalf("FetchLayer(%q): %v", id, err)
		}
		checkChunkIs(t, res, v, 1, 2, 3, true)
		mpd, err := c.FetchMPD(ctx, id)
		if err != nil {
			t.Fatalf("FetchMPD(%q): %v", id, err)
		}
		// XML cannot carry every byte (NUL, invalid UTF-8); the manifest of
		// a text ID names it exactly.
		if !strings.ContainsAny(id, "\x00\xff") && mpd.VideoID != id {
			t.Fatalf("FetchMPD(%q) is the manifest of %q", id, mpd.VideoID)
		}
	}

	for _, id := range []string{".", "..", strings.Repeat("k", 256), ""} {
		if err := cat.Add(idVideo(id)); err == nil {
			t.Fatalf("Add(%q) accepted an ID no client can fetch under", id)
		}
	}
}

// FuzzChunkPathRoundTrip: any (id, q, tile, idx, layer) through
// ChunkPath, a real listener and the server's dispatch comes back as the
// chunk at exactly that address, or as a clean 4xx — never as another
// chunk (the catalog also holds "demo", which a path that let the ID
// leak into the URL's structure could reach), never as a panic, a 5xx or
// a transport error.
func FuzzChunkPathRoundTrip(f *testing.F) {
	f.Add("demo", 0, 0, 0, false)
	f.Add("x/y", 1, 2, 3, false)
	f.Add("50%", 1, 2, 3, true)
	f.Add("q?layer=1", 5, 7, 9, false)
	f.Add("h#frag", 0, 1, 2, true)
	f.Add("a%2Fb", 2, 0, 0, false)
	f.Add("demo/c/0/0/0", 0, 0, 0, false)
	f.Add("..", 0, 0, 0, false)
	f.Add("../demo", -1, 8, 10, true)
	const huge = 1 << (strconv.IntSize/2 + 8) // 1<<40 on 64-bit
	f.Add(strings.Repeat("é", 128), huge, -huge, 3, false)

	// One listener for the run; each input swaps the catalog behind it.
	var cur atomic.Pointer[Server]
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		cur.Load().ServeHTTP(w, r)
	}))
	f.Cleanup(srv.Close)
	c := NewClient(srv.URL, WithRetry(RetryPolicy{MaxAttempts: -1}))

	f.Fuzz(func(t *testing.T, id string, q, tile, idx int, layer bool) {
		cat := NewCatalog()
		if err := cat.Add(testVideo()); err != nil {
			t.Fatal(err)
		}
		v := idVideo(id)
		if id != "demo" {
			if err := cat.Add(v); err != nil {
				return // refused at the door: nothing to fetch
			}
		}
		cur.Store(NewServer(cat))
		fetch := c.FetchChunk
		if layer {
			fetch = c.FetchLayer
		}
		res, err := fetch(context.Background(), id, q, tile, idx)
		inRange := q >= 0 && q < v.Qualities() && v.Grid.Valid(tiling.TileID(tile)) && idx >= 0 && idx < v.NumChunks()
		if err == nil {
			if !inRange {
				t.Fatalf("%q %d/%d/%d layer=%v is out of range and was served", id, q, tile, idx, layer)
			}
			checkChunkIs(t, res, v, q, tile, idx, layer)
			return
		}
		if inRange {
			t.Fatalf("%q %d/%d/%d layer=%v is in range and failed: %v", id, q, tile, idx, layer, err)
		}
		var derr *Error
		if !errors.As(err, &derr) || derr.Status < 400 || derr.Status > 499 {
			t.Fatalf("%q %d/%d/%d layer=%v: %v, want a 4xx", id, q, tile, idx, layer, err)
		}
	})
}
