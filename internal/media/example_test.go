package media_test

import (
	"fmt"
	"time"

	"sperke/internal/media"
	"sperke/internal/tiling"
)

// ExampleVideo_UpgradeBytes demonstrates the §3.1.1 mismatch: raising a
// fetched chunk's quality costs a delta under SVC but a full re-fetch
// under AVC.
func ExampleVideo_UpgradeBytes() {
	v := media.Video{
		ID:            "demo",
		Duration:      time.Minute,
		ChunkDuration: 2 * time.Second,
		Grid:          tiling.GridCellular,
		Ladder:        media.DefaultLadder,
	}

	tile := tiling.TileID(0)
	s := v.UpgradeBytes(media.EncodingSVC, 2, 4, tile, 0)
	a := v.UpgradeBytes(media.EncodingAVC, 2, 4, tile, 0)
	fmt.Printf("SVC delta is %.0f%% of the AVC re-fetch\n", float64(s)/float64(a)*100)
	// Output:
	// SVC delta is 82% of the AVC re-fetch
}
