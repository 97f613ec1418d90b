package media

import (
	"math"
	"strconv"
	"testing"
	"testing/quick"
	"time"

	"sperke/internal/tiling"
)

func testVideo(enc Encoding) *Video {
	return &Video{
		ID:            "test-video",
		Duration:      60 * time.Second,
		ChunkDuration: 2 * time.Second,
		Grid:          tiling.Grid{Rows: 4, Cols: 6},
		Ladder:        DefaultLadder,
		Encoding:      enc,
	}
}

func TestVideoValidate(t *testing.T) {
	v := testVideo(EncodingAVC)
	if err := v.Validate(); err != nil {
		t.Fatalf("valid video rejected: %v", err)
	}
	bad := *v
	bad.ID = ""
	if bad.Validate() == nil {
		t.Fatal("empty ID accepted")
	}
	bad = *v
	bad.ChunkDuration = 0
	if bad.Validate() == nil {
		t.Fatal("zero chunk duration accepted")
	}
	bad = *v
	bad.Ladder = []QualityLevel{{Bitrate: 2 * mbps}, {Bitrate: 1 * mbps}}
	if bad.Validate() == nil {
		t.Fatal("non-increasing ladder accepted")
	}
	bad = *v
	bad.Ladder = nil
	if bad.Validate() == nil {
		t.Fatal("empty ladder accepted")
	}
}

func TestNumChunksCeil(t *testing.T) {
	v := testVideo(EncodingAVC)
	if got := v.NumChunks(); got != 30 {
		t.Fatalf("NumChunks = %d, want 30", got)
	}
	v.Duration = 61 * time.Second
	if got := v.NumChunks(); got != 31 {
		t.Fatalf("NumChunks(61s) = %d, want 31 (partial chunk)", got)
	}
}

// TestNumChunksExact: the integer ceiling, on exact multiples, a partial
// last chunk, non-positive durations, and (on a 64-bit int) a duration
// past 2^53 ns, where the float64 ceiling it replaced rounded a partial
// last chunk away.
func TestNumChunksExact(t *testing.T) {
	type row struct {
		d, chunk time.Duration
		want     int64
	}
	rows := []row{
		{2 * time.Second, 2 * time.Second, 1},
		{60 * time.Second, 2 * time.Second, 30},
		{59 * time.Second, 2 * time.Second, 30},
		{60*time.Second + 1, 2 * time.Second, 31},
		{1, 2 * time.Second, 1},
		{0, 2 * time.Second, 0},
		{-3 * time.Second, 2 * time.Second, -1}, // math.Ceil(-1.5), as before
		{60 * time.Second, 0, 0},
		{60 * time.Second, -time.Second, 0},
		{2*time.Second - 1, 1000003, 2000},
		{2 * time.Second, 1000003, 2000},
	}
	if strconv.IntSize == 64 {
		rows = append(rows,
			row{1<<53 + 1, 2, 1<<52 + 1},
			row{1<<62 + 1, 1 << 31, 1<<31 + 1},
			row{math.MaxInt64, time.Nanosecond, math.MaxInt64},
		)
	}
	for _, r := range rows {
		v := Video{Duration: r.d, ChunkDuration: r.chunk}
		if got := v.NumChunks(); int64(got) != r.want {
			t.Errorf("NumChunks(%d ns over %d ns chunks) = %d, want %d", int64(r.d), int64(r.chunk), got, r.want)
		}
	}
}

func TestChunkBytesScalesWithQuality(t *testing.T) {
	v := testVideo(EncodingAVC)
	for tile := tiling.TileID(0); int(tile) < v.Grid.Tiles(); tile++ {
		prev := int64(0)
		for q := 0; q < v.Qualities(); q++ {
			b := v.ChunkBytes(q, tile, 0)
			if b <= prev {
				t.Fatalf("tile %d: quality %d size %d not > quality %d size %d", tile, q, b, q-1, prev)
			}
			prev = b
		}
	}
}

func TestChunkBytesDeterministic(t *testing.T) {
	a := testVideo(EncodingAVC)
	b := testVideo(EncodingAVC)
	for q := 0; q < a.Qualities(); q++ {
		if a.ChunkBytes(q, 3, 4*time.Second) != b.ChunkBytes(q, 3, 4*time.Second) {
			t.Fatal("sizes differ across identical videos")
		}
	}
	c := testVideo(EncodingAVC)
	c.ID = "other-video"
	same := 0
	for tile := tiling.TileID(0); int(tile) < a.Grid.Tiles(); tile++ {
		if a.ChunkBytes(2, tile, 0) == c.ChunkBytes(2, tile, 0) {
			same++
		}
	}
	if same == a.Grid.Tiles() {
		t.Fatal("different video IDs produced identical size maps")
	}
}

func TestChunkBytesOutOfRange(t *testing.T) {
	v := testVideo(EncodingAVC)
	if v.ChunkBytes(-1, 0, 0) != 0 {
		t.Fatal("negative quality returned bytes")
	}
	if v.ChunkBytes(99, 0, 0) != 0 {
		t.Fatal("quality beyond ladder returned bytes")
	}
	if v.ChunkBytes(0, tiling.TileID(999), 0) != 0 {
		t.Fatal("invalid tile returned bytes")
	}
	if v.ChunkBytes(0, 0, 2*time.Minute) != 0 {
		t.Fatal("start beyond duration returned bytes")
	}
}

func TestFinalPartialChunkSmaller(t *testing.T) {
	v := testVideo(EncodingAVC)
	v.Duration = 59 * time.Second // final chunk is 1s of a 2s interval
	full := v.ChunkBytes(3, 0, 0)
	partial := v.ChunkBytes(3, 0, 58*time.Second)
	if partial >= full {
		t.Fatalf("partial final chunk %d not smaller than full chunk %d", partial, full)
	}
}

func TestTileComplexityMeanNearOne(t *testing.T) {
	v := testVideo(EncodingAVC)
	var sum float64
	n := v.Grid.Tiles()
	for tile := tiling.TileID(0); int(tile) < n; tile++ {
		c := v.tileComplexity(tile)
		if c < 0.6 || c > 1.4 {
			t.Fatalf("complexity %v out of [0.6,1.4]", c)
		}
		sum += c
	}
	mean := sum / float64(n)
	if mean < 0.8 || mean > 1.2 {
		t.Fatalf("complexity mean %v far from 1", mean)
	}
}

func TestSVCLayerInvariants(t *testing.T) {
	v := testVideo(EncodingSVC)
	tile := tiling.TileID(5)
	start := 10 * time.Second
	// Layer 0 equals the lowest AVC quality.
	if v.LayerBytes(0, tile, start) != v.ChunkBytes(0, tile, start) {
		t.Fatal("base layer != lowest quality chunk")
	}
	// Cumulative layers are monotonically increasing and exceed the AVC
	// size at the same quality (the SVC overhead).
	for q := 1; q < v.Qualities(); q++ {
		cum := v.SpanBytes(EncodingSVC, 0, q, tile, start)
		prev := v.SpanBytes(EncodingSVC, 0, q-1, tile, start)
		if cum <= prev {
			t.Fatalf("cumulative not increasing at layer %d", q)
		}
		avc := v.ChunkBytes(q, tile, start)
		if cum <= avc {
			t.Fatalf("SVC cumulative %d at q%d should exceed AVC %d (overhead)", cum, q, avc)
		}
		// But not by more than ~overhead per layer.
		if float64(cum) > float64(avc)*(1+svcOverhead)*1.05 {
			t.Fatalf("SVC cumulative %d at q%d exceeds AVC %d by more than overhead bound", cum, q, avc)
		}
	}
}

func TestUpgradeBytesSVCvsAVC(t *testing.T) {
	svc := testVideo(EncodingSVC)
	avc := testVideo(EncodingAVC)
	tile := tiling.TileID(2)
	// Upgrading 2→4: SVC fetches only layers 3 and 4; AVC re-fetches the
	// whole q4 chunk. SVC must be cheaper — the §3.1.1 argument.
	sv := svc.SpanBytes(EncodingSVC, 3, 4, tile, 0)
	av := avc.SpanBytes(EncodingAVC, 3, 4, tile, 0)
	if sv >= av {
		t.Fatalf("SVC upgrade %d not cheaper than AVC re-fetch %d", sv, av)
	}
	for _, enc := range []Encoding{EncodingSVC, EncodingAVC} {
		if svc.SpanBytes(enc, 5, 2, tile, 0) != 0 {
			t.Fatalf("%v: downgrade should cost 0", enc)
		}
		if svc.SpanBytes(enc, 4, 3, tile, 0) != 0 {
			t.Fatalf("%v: no-op upgrade should cost 0", enc)
		}
	}
}

func TestUpgradeBytesProperty(t *testing.T) {
	// Property: for any from<to, the SVC upgrade span from+1..to equals
	// the cumulative span 0..to less 0..from.
	v := testVideo(EncodingSVC)
	f := func(fromRaw, toRaw uint8, tileRaw uint8) bool {
		from := int(fromRaw) % v.Qualities()
		to := int(toRaw) % v.Qualities()
		if from >= to {
			return v.SpanBytes(EncodingSVC, from+1, to, 0, 0) == 0
		}
		tile := tiling.TileID(int(tileRaw) % v.Grid.Tiles())
		want := v.SpanBytes(EncodingSVC, 0, to, tile, 0) - v.SpanBytes(EncodingSVC, 0, from, tile, 0)
		return v.SpanBytes(EncodingSVC, from+1, to, tile, 0) == want
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestFetchBytesByEncoding(t *testing.T) {
	svc := testVideo(EncodingSVC)
	avc := testVideo(EncodingAVC)
	if avc.SpanBytes(EncodingAVC, 0, 3, 0, 0) != avc.ChunkBytes(3, 0, 0) {
		t.Fatal("AVC fetch != chunk bytes")
	}
	var layers int64
	for l := 0; l <= 3; l++ {
		layers += svc.LayerBytes(l, 0, 0)
	}
	if svc.SpanBytes(EncodingSVC, 0, 3, 0, 0) != layers {
		t.Fatal("SVC fetch != cumulative layers")
	}
}

func TestPanoramaBytesIsTileSum(t *testing.T) {
	v := testVideo(EncodingAVC)
	var sum int64
	for tile := tiling.TileID(0); int(tile) < v.Grid.Tiles(); tile++ {
		sum += v.ChunkBytes(4, tile, 0)
	}
	if got := v.PanoramaBytes(4, 0); got != sum {
		t.Fatalf("PanoramaBytes = %d, want %d", got, sum)
	}
}

func TestTotalBytesPositiveAndSVCLarger(t *testing.T) {
	avc := testVideo(EncodingAVC)
	svc := testVideo(EncodingSVC)
	ta, ts := avc.TotalBytes(), svc.TotalBytes()
	if ta <= 0 {
		t.Fatal("AVC total not positive")
	}
	// SVC storage is smaller than AVC storage: AVC stores every quality
	// in full; SVC stores only deltas (plus overhead).
	if ts >= ta {
		t.Fatalf("SVC storage %d should be below AVC storage %d", ts, ta)
	}
}

func TestBitrateString(t *testing.T) {
	if (3200 * Kbps).String() != "3.20Mbps" {
		t.Fatalf("got %q", (3200 * Kbps).String())
	}
	if (500 * Kbps).String() != "500.0Kbps" {
		t.Fatalf("got %q", (500 * Kbps).String())
	}
	if Bitrate(100).String() != "100bps" {
		t.Fatalf("got %q", Bitrate(100).String())
	}
}

func TestBitrateBytesIn(t *testing.T) {
	if got := (8 * mbps).BytesIn(time.Second); got != 1e6 {
		t.Fatalf("8Mbps over 1s = %d bytes, want 1e6", got)
	}
}

func TestEncodingString(t *testing.T) {
	if EncodingAVC.String() != "AVC" || EncodingSVC.String() != "SVC" {
		t.Fatal("bad encoding strings")
	}
}

func TestFetchBytesMonotoneInQuality(t *testing.T) {
	// Property: fetching a higher quality never costs fewer bytes, under
	// either encoding.
	for _, enc := range []Encoding{EncodingAVC, EncodingSVC} {
		v := testVideo(enc)
		f := func(qa, qb, tileRaw uint8, startRaw uint16) bool {
			a, b := int(qa)%v.Qualities(), int(qb)%v.Qualities()
			if a > b {
				a, b = b, a
			}
			tile := tiling.TileID(int(tileRaw) % v.Grid.Tiles())
			start := time.Duration(startRaw%30) * 2 * time.Second
			return v.SpanBytes(enc, 0, a, tile, start) <= v.SpanBytes(enc, 0, b, tile, start)
		}
		if err := quick.Check(f, nil); err != nil {
			t.Fatalf("%v: %v", enc, err)
		}
	}
}
