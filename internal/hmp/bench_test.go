package hmp

import (
	"testing"
	"time"

	"sperke/internal/sphere"
	"sperke/internal/tiling"
)

func BenchmarkLinearObservePredict(b *testing.B) {
	h := steadyYawTrace(25, 10*time.Second)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		var p LinearRegression
		for _, s := range h.Samples[:50] {
			p.Observe(s)
		}
		p.Predict(2 * time.Second)
	}
}

func BenchmarkBuildHeatmap(b *testing.B) {
	hm, sessions, _ := buildTestHeatmap(b, 8)
	vp := tiling.NewViewport(hm.Grid, sphere.Equirectangular{}, sphere.DefaultFoV)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		BuildHeatmap(vp, 2*time.Second, 30*time.Second, sessions)
	}
}
