package media_test

import (
	"fmt"
	"time"

	"sperke/internal/media"
	"sperke/internal/tiling"
)

// ExampleVideo_SpanBytes demonstrates the §3.1.1 mismatch: raising a
// fetched chunk's quality from 2 to 4 (the span 3..4) costs a delta
// under SVC but a full re-fetch under AVC.
func ExampleVideo_SpanBytes() {
	v := media.Video{
		ID:            "demo",
		Duration:      time.Minute,
		ChunkDuration: 2 * time.Second,
		Grid:          tiling.GridCellular,
		Ladder:        media.DefaultLadder,
	}

	tile := tiling.TileID(0)
	s := v.SpanBytes(media.EncodingSVC, 3, 4, tile, 0)
	a := v.SpanBytes(media.EncodingAVC, 3, 4, tile, 0)
	fmt.Printf("SVC delta is %.0f%% of the AVC re-fetch\n", float64(s)/float64(a)*100)
	// Output:
	// SVC delta is 82% of the AVC re-fetch
}
