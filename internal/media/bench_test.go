package media

import (
	"testing"
	"time"

	"sperke/internal/tiling"
)

// chunkSizes asks a video for a chunk's size, walking its tiles and
// intervals — what a session does for every tile of every plan. The
// first call builds the video's rateModel, which AllocsPerRun's warm-up
// run absorbs; every later one reads its kept factors.
func chunkSizes() func() {
	v := testVideo(EncodingAVC)
	i := 0
	return func() {
		v.ChunkBytes(3, tiling.TileID(i%24), time.Duration(i%30)*2*time.Second)
		i++
	}
}

// TestChunkBytesAllocs: a size reads the factors the video's rateModel
// keeps, so asking allocates nothing.
func TestChunkBytesAllocs(t *testing.T) {
	n := testing.AllocsPerRun(1000, chunkSizes())
	t.Logf("ChunkBytes allocates %.0f objects (budget 0)", n)
	if n != 0 {
		t.Fatalf("ChunkBytes allocates %.0f objects, want 0", n)
	}
}

func BenchmarkChunkBytes(b *testing.B) {
	size := chunkSizes()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		size()
	}
}
