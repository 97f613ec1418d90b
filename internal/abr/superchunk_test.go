package abr

import (
	"testing"
	"time"

	"sperke/internal/hmp"
	"sperke/internal/media"
	"sperke/internal/sphere"
	"sperke/internal/tiling"
)

func scVideo() *media.Video {
	return &media.Video{
		ID:            "sc-test",
		Duration:      20 * time.Second,
		ChunkDuration: 2 * time.Second,
		Grid:          tiling.GridCellular,
		Ladder:        media.DefaultLadder,
		Encoding:      media.EncodingAVC,
	}
}

func TestBuildSuperChunkCoversFoV(t *testing.T) {
	g := tiling.GridCellular
	p := sphere.Equirectangular{}
	pred := hmp.Prediction{View: sphere.Orientation{Yaw: 45}, Radius: 10}
	sc := BuildSuperChunk(tiling.NewViewport(g, p, sphere.DefaultFoV), pred, 3, 2*time.Second, nil)
	if sc.Interval != 3 || sc.Start != 6*time.Second {
		t.Fatalf("interval/start %d/%v", sc.Interval, sc.Start)
	}
	want := tiling.VisibleTiles(g, p, pred.View, sphere.DefaultFoV)
	if len(sc.Tiles) != len(want) {
		t.Fatalf("tiles %d, want %d", len(sc.Tiles), len(want))
	}
	if sc.Prediction.Radius != 10 {
		t.Fatal("prediction not carried")
	}
}

func TestSuperChunkSizeMatchesTileSum(t *testing.T) {
	v := scVideo()
	sc := BuildSuperChunk(tiling.NewViewport(v.Grid, sphere.Equirectangular{}, sphere.DefaultFoV),
		hmp.Prediction{}, 2, v.ChunkDuration, nil)
	var sum int64
	for _, id := range sc.Tiles {
		sum += v.FetchBytes(3, id, sc.Start)
	}
	if got := sc.SizeAt(v, 3); got != sum {
		t.Fatalf("SizeAt = %d, want %d", got, sum)
	}
	// Rate is size over the chunk duration.
	wantRate := float64(sum) * 8 / 2
	if got := sc.Rate(v, 3); got != wantRate {
		t.Fatalf("Rate = %v, want %v", got, wantRate)
	}
}

func TestSuperChunkSmallerThanPanorama(t *testing.T) {
	// The point of the construction: a super chunk is the FoV cover, not
	// the sphere.
	v := scVideo()
	sc := BuildSuperChunk(tiling.NewViewport(v.Grid, sphere.Equirectangular{}, sphere.DefaultFoV),
		hmp.Prediction{}, 0, v.ChunkDuration, nil)
	if sc.SizeAt(v, 4) >= v.PanoramaBytes(4, 0) {
		t.Fatal("super chunk not smaller than the panorama")
	}
}

func TestBuildSequence(t *testing.T) {
	v := scVideo()
	// A predictor panning rightward: later intervals cover different
	// tiles.
	predict := func(at time.Duration) hmp.Prediction {
		return hmp.Prediction{View: sphere.Orientation{Yaw: 20 * at.Seconds()}, Radius: 15}
	}
	seq := BuildSequence(tiling.NewViewport(v.Grid, sphere.Equirectangular{}, sphere.DefaultFoV),
		predict, v.ChunkDuration, 0, 5)
	if len(seq) != 5 {
		t.Fatalf("sequence length %d", len(seq))
	}
	for i, sc := range seq {
		if sc.Interval != i {
			t.Fatalf("interval %d at position %d", sc.Interval, i)
		}
		if len(sc.Tiles) == 0 {
			t.Fatalf("empty cover at %d", i)
		}
	}
	// The pan must move the cover: first and last intervals differ.
	same := true
	first := map[tiling.TileID]bool{}
	for _, id := range seq[0].Tiles {
		first[id] = true
	}
	for _, id := range seq[4].Tiles {
		if !first[id] {
			same = false
		}
	}
	if same && len(seq[0].Tiles) == len(seq[4].Tiles) {
		t.Fatal("160° of pan did not change the cover")
	}
	if BuildSequence(tiling.NewViewport(v.Grid, sphere.Equirectangular{}, sphere.DefaultFoV),
		predict, v.ChunkDuration, 3, 3) != nil {
		t.Fatal("empty range not nil")
	}
}
