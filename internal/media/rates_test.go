package media

import (
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"sperke/internal/tiling"
)

// directChunkBytes is ChunkBytes with both factors hashed on every call,
// as it was before videos kept a rateModel: the oracle for the kept one.
func directChunkBytes(v *Video, q int, tile tiling.TileID, start time.Duration) int64 {
	if q < 0 || q >= len(v.Ladder) || !v.Grid.Valid(tile) {
		return 0
	}
	dur := v.chunkDurAt(start)
	if dur <= 0 {
		return 0
	}
	mean := float64(v.Ladder[q].Bitrate) * dur.Seconds() / 8 / float64(v.Grid.Tiles())
	idx := int(start / v.ChunkDuration)
	size := mean * v.tileComplexity(tile) * v.chunkVariation(idx)
	if size < 1 {
		size = 1
	}
	return int64(size)
}

func directLayerBytes(v *Video, layer int, tile tiling.TileID, start time.Duration) int64 {
	if layer < 0 || layer >= len(v.Ladder) {
		return 0
	}
	if layer == 0 {
		return directChunkBytes(v, 0, tile, start)
	}
	delta := directChunkBytes(v, layer, tile, start) - directChunkBytes(v, layer-1, tile, start)
	if delta < 0 {
		delta = 0
	}
	return int64(float64(delta) * (1 + svcOverhead))
}

func directSpanBytes(v *Video, enc Encoding, from, to int, tile tiling.TileID, start time.Duration) int64 {
	if to < from {
		return 0
	}
	if enc != EncodingSVC {
		return directChunkBytes(v, to, tile, start)
	}
	var sum int64
	for l := from; l <= to && l < len(v.Ladder); l++ {
		sum += directLayerBytes(v, l, tile, start)
	}
	return sum
}

// checkKeptSizes compares every size v answers against the direct
// formula: every quality and layer (one past each end included), every
// tile and one past each end, and every interval's start, one inside it,
// and the starts before the first and past the last.
func checkKeptSizes(t *testing.T, v *Video) {
	t.Helper()
	var starts []time.Duration
	for i := -1; i <= v.NumChunks()+1; i++ {
		starts = append(starts, v.ChunkStart(i), v.ChunkStart(i)+v.ChunkDuration/3)
	}
	for _, start := range starts {
		for tile := tiling.TileID(-1); int(tile) <= v.Grid.Tiles(); tile++ {
			for q := -1; q <= len(v.Ladder); q++ {
				if got, want := v.ChunkBytes(q, tile, start), directChunkBytes(v, q, tile, start); got != want {
					t.Fatalf("%q: ChunkBytes(%d, %d, %v) = %d, direct formula %d", v.ID, q, tile, start, got, want)
				}
				if got, want := v.LayerBytes(q, tile, start), directLayerBytes(v, q, tile, start); got != want {
					t.Fatalf("%q: LayerBytes(%d, %d, %v) = %d, direct formula %d", v.ID, q, tile, start, got, want)
				}
				for _, enc := range []Encoding{EncodingAVC, EncodingSVC} {
					for from := 0; from <= q; from++ {
						if got, want := v.SpanBytes(enc, from, q, tile, start), directSpanBytes(v, enc, from, q, tile, start); got != want {
							t.Fatalf("%q: SpanBytes(%v, %d, %d, %d, %v) = %d, direct formula %d", v.ID, enc, from, q, tile, start, got, want)
						}
					}
				}
			}
		}
	}
}

// TestKeptSizesMatchDirectFormula: the sizes read through a video's
// rateModel are the ones the two FNV hashes give when computed on every
// call, for IDs of one byte and of MaxVideoIDLen, both encodings, and a
// video whose last chunk is partial.
func TestKeptSizesMatchDirectFormula(t *testing.T) {
	short := testVideo(EncodingAVC)
	short.ID = "x"
	long := testVideo(EncodingSVC)
	long.ID = strings.Repeat("L", MaxVideoIDLen)
	partial := testVideo(EncodingSVC)
	partial.Duration = 59 * time.Second
	partial.Grid = tiling.GridPrototype
	for _, v := range []*Video{short, long, partial, testVideo(EncodingAVC)} {
		checkKeptSizes(t, v)
	}
}

// TestKeptSizesPastTheModelsTables: a video with more intervals, or a
// grid with more tiles, than a rateModel keeps hashes the factors past
// its tables and answers the same sizes.
func TestKeptSizesPastTheModelsTables(t *testing.T) {
	v := testVideo(EncodingAVC)
	v.ChunkDuration = time.Millisecond
	v.Duration = (maxKept + 3) * time.Millisecond
	for _, idx := range []int{0, maxKept - 1, maxKept, maxKept + 2} {
		start := v.ChunkStart(idx)
		for q := range v.Ladder {
			if got, want := v.ChunkBytes(q, 5, start), directChunkBytes(v, q, 5, start); got != want {
				t.Fatalf("interval %d: ChunkBytes = %d, direct formula %d", idx, got, want)
			}
		}
	}
	g := testVideo(EncodingAVC)
	g.Grid = tiling.Grid{Rows: 65, Cols: 65}
	for _, tile := range []tiling.TileID{0, maxKept - 1, maxKept, 65*65 - 1} {
		if got, want := g.ChunkBytes(2, tile, 4*time.Second), directChunkBytes(g, 2, tile, 4*time.Second); got != want {
			t.Fatalf("tile %d: ChunkBytes = %d, direct formula %d", tile, got, want)
		}
	}
}

// TestCopiedVideoKeepsItsOwnRates: a Video copied by value after first
// use carries its original's model, and must not use it once its ID,
// grid or durations differ; the original keeps answering its own sizes.
func TestCopiedVideoKeepsItsOwnRates(t *testing.T) {
	for _, change := range []struct {
		name string
		edit func(*Video)
	}{
		{"id", func(c *Video) { c.ID = "copy" }},
		{"longer", func(c *Video) { c.Duration = 90 * time.Second }},
		{"shorter", func(c *Video) { c.Duration = 7 * time.Second }},
		{"chunk duration", func(c *Video) { c.ChunkDuration = time.Second }},
		{"grid", func(c *Video) { c.Grid = tiling.Grid{Rows: 6, Cols: 8} }},
	} {
		t.Run(change.name, func(t *testing.T) {
			v := testVideo(EncodingSVC)
			checkKeptSizes(t, v)
			c := *v
			change.edit(&c)
			checkKeptSizes(t, &c)
			checkKeptSizes(t, v)
			if c.model() == v.model() {
				t.Fatal("the changed copy reads its original's model")
			}
		})
	}
}

// TestRateModelBuiltOnce: once built, a video's model is what every
// later size reads.
func TestRateModelBuiltOnce(t *testing.T) {
	v := testVideo(EncodingAVC)
	m := v.model()
	v.SpanBytes(EncodingSVC, 0, 5, 3, 6*time.Second)
	if v.model() != m {
		t.Fatal("an unchanged video built its model again")
	}
}

// TestRateModelConcurrentFirstUse: sessions and server handlers share one
// *Video from its first size on; under -race this is the check that the
// model is published safely.
func TestRateModelConcurrentFirstUse(t *testing.T) {
	ref := testVideo(EncodingSVC)
	want := make([]int64, ref.NumChunks()*ref.Grid.Tiles())
	for i := range want {
		want[i] = directSpanBytes(ref, EncodingSVC, 0, 5, tiling.TileID(i%ref.Grid.Tiles()), ref.ChunkStart(i/ref.Grid.Tiles()))
	}
	for round := 0; round < 20; round++ {
		v := testVideo(EncodingSVC)
		var wg sync.WaitGroup
		errs := make(chan string, 8)
		for g := 0; g < 8; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				for k := range want {
					i := (k + g*37) % len(want)
					tile, start := tiling.TileID(i%v.Grid.Tiles()), v.ChunkStart(i/v.Grid.Tiles())
					if got := v.SpanBytes(EncodingSVC, 0, 5, tile, start); got != want[i] {
						errs <- "goroutine " + strconv.Itoa(g) + ": cell " + strconv.Itoa(i) + " read " + strconv.FormatInt(got, 10)
						return
					}
				}
			}(g)
		}
		wg.Wait()
		close(errs)
		for e := range errs {
			t.Fatal(e)
		}
	}
}
