package tiling

import (
	"testing"

	"sperke/internal/sphere"
)

// BenchmarkVisibleTiles is one query of a viewport built once, as a
// session asks it. The 10x20 case is there for the column search: a
// border bisection that grew with the column count would lose to the
// one atan2 it replaces on a wide grid before it did on the 4×6 one.
func BenchmarkVisibleTiles(b *testing.B) {
	p := sphere.Equirectangular{}
	view := sphere.Orientation{Yaw: 42, Pitch: 17}
	for _, bc := range []struct {
		name string
		g    Grid
	}{{"4x6", GridCellular}, {"10x20", Grid{Rows: 10, Cols: 20}}} {
		b.Run(bc.name, func(b *testing.B) {
			vp := NewViewport(bc.g, p, sphere.DefaultFoV)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				vp.Visible(view)
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
