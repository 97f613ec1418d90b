package tiling_test

import (
	"fmt"

	"sperke/internal/sphere"
	"sperke/internal/tiling"
)

// ExampleVisibleTiles computes the super-chunk tile set of §3.1.2: the
// minimal tiles covering a predicted FoV, plus the first OOS ring that
// absorbs prediction error.
func ExampleVisibleTiles() {
	g := tiling.GridCellular // the 4×6 grid of [37]
	view := sphere.Orientation{Yaw: 0, Pitch: 0}

	fov := tiling.VisibleTiles(g, view, sphere.DefaultFoV)
	ring := tiling.Ring(g, fov, 1)
	fmt.Printf("FoV tiles: %d of %d\n", len(fov), g.Tiles())
	fmt.Printf("first OOS ring: %d tiles\n", len(ring))
	// Output:
	// FoV tiles: 6 of 24
	// first OOS ring: 10 tiles
}

// ExampleChunkID shows the chunk addressing of Fig. 2.
func ExampleChunkID() {
	c := tiling.ChunkID{Quality: 3, Tile: 7, Start: 4e9} // 4s in nanoseconds
	fmt.Println(c)
	// Output:
	// C(q=3, l=7, t=4s)
}
