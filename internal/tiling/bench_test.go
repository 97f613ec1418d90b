package tiling

import (
	"testing"

	"sperke/internal/sphere"
)

// BenchmarkVisibleTiles/10x20 is there for the column search: a border
// bisection that grew with the column count would lose to the one
// atan2 it replaces on a wide grid before it did on the 4×6 one.
func BenchmarkVisibleTiles(b *testing.B) {
	p := sphere.Equirectangular{}
	view := sphere.Orientation{Yaw: 42, Pitch: 17}
	for _, bc := range []struct {
		name string
		g    Grid
	}{{"4x6", GridCellular}, {"10x20", Grid{Rows: 10, Cols: 20}}} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				VisibleTiles(bc.g, p, view, sphere.DefaultFoV)
			}
		})
	}
}

func BenchmarkRing(b *testing.B) {
	g := GridCellular
	fov := VisibleTiles(g, sphere.Equirectangular{}, sphere.Orientation{}, sphere.DefaultFoV)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Ring(g, fov, 2)
	}
}
