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
	pred := hmp.Prediction{View: sphere.Orientation{Yaw: 45}, Radius: 10}
	sc := BuildSuperChunk(tiling.NewViewport(g, sphere.DefaultFoV), pred, 3, 2*time.Second, nil)
	if sc.Interval != 3 || sc.Start != 6*time.Second {
		t.Fatalf("interval/start %d/%v", sc.Interval, sc.Start)
	}
	want := tiling.VisibleTiles(g, pred.View, sphere.DefaultFoV)
	if len(sc.Tiles) != len(want) {
		t.Fatalf("tiles %d, want %d", len(sc.Tiles), len(want))
	}
	if sc.Prediction.Radius != 10 {
		t.Fatal("prediction not carried")
	}
}

func TestSuperChunkSizeMatchesTileSum(t *testing.T) {
	v := scVideo()
	sc := BuildSuperChunk(tiling.NewViewport(v.Grid, sphere.DefaultFoV),
		hmp.Prediction{}, 2, v.ChunkDuration, nil)
	var sum int64
	for _, id := range sc.Tiles {
		sum += v.SpanBytes(v.Encoding, 0, 3, id, sc.Start)
	}
	if got := sc.SizeAt(v, 3); got != sum {
		t.Fatalf("SizeAt = %d, want %d", got, sum)
	}
}

func TestSuperChunkSmallerThanPanorama(t *testing.T) {
	// The point of the construction: a super chunk is the FoV cover, not
	// the sphere.
	v := scVideo()
	sc := BuildSuperChunk(tiling.NewViewport(v.Grid, sphere.DefaultFoV),
		hmp.Prediction{}, 0, v.ChunkDuration, nil)
	if sc.SizeAt(v, 4) >= v.PanoramaBytes(4, 0) {
		t.Fatal("super chunk not smaller than the panorama")
	}
}
