package live

import (
	"time"

	"sperke/internal/hmp"
	"sperke/internal/sim"
	"sperke/internal/tiling"
	"sperke/internal/trace"
)

// FoVLiveStats reports what FoV-guided live delivery (§3.4.2's closing
// integration: the live pipeline riding Sperke's tiling primitives)
// achieved for one viewer.
type FoVLiveStats struct {
	// FetchShare is the mean fraction of the panorama's tiles actually
	// downloaded.
	FetchShare float64
	// Coverage is the fraction of displayed segments whose actual FoV
	// was fully inside the fetched tile set — misses mean blank tiles.
	Coverage float64
	// Segments is the number of displayed segments measured.
	Segments int
}

// MeasureFoVGuidedLive runs one live viewer that fetches per-tile
// instead of whole panoramas: each segment downloads the tiles covering
// the viewer's current FoV plus one OOS ring, optionally widened by the
// crowd heatmap built from lower-latency viewers (§3.4.2). It returns
// the usual latency Result plus tile statistics.
func MeasureFoVGuidedLive(seed int64, p Platform, vp tiling.Viewport,
	head *trace.HeadTrace, heat *hmp.Heatmap,
	cond Condition, broadcastDur time.Duration) (Result, FoVLiveStats) {
	clock := sim.NewClock(seed)
	g := vp.Grid()
	v := newViewerSim(clock, p, cond.Down, broadcastDur)

	var stats FoVLiveStats
	var shareSum float64
	fetched := make(map[int]map[tiling.TileID]bool)

	tileSet := func(seg segment) map[tiling.TileID]bool {
		// Predict with the viewer's current orientation (live viewers
		// watch hands-free; short horizons are near-static) plus one OOS
		// ring; the crowd heatmap adds tiles lagging prediction misses.
		view := head.At(clock.Now())
		set := make(map[tiling.TileID]bool)
		visible := vp.Visible(view)
		for _, id := range visible {
			set[id] = true
		}
		ring := tiling.Ring(g, visible, 1)
		if heat != nil && heat.Intervals() > 0 {
			// §3.2 pruning applied live: keep only the ring tiles the
			// crowd actually looks at, and add the crowd's favorites.
			for _, id := range ring {
				if heat.Probability(seg.contentStart, id) >= 0.05 {
					set[id] = true
				}
			}
			for _, id := range heat.TopTiles(seg.contentStart, 4) {
				set[id] = true
			}
		} else {
			for _, id := range ring {
				set[id] = true
			}
		}
		return set
	}

	v.sizeOf = func(seg segment, rate float64) int64 {
		set := tileSet(seg)
		fetched[seg.idx] = set
		share := float64(len(set)) / float64(g.Tiles())
		shareSum += share
		return int64(rate * p.SegmentDur.Seconds() / 8 * share)
	}
	v.onDisplay = func(seg segment, at time.Duration) {
		if at > broadcastDur {
			return
		}
		stats.Segments++
		set := fetched[seg.idx]
		covered := true
		for _, id := range vp.Visible(head.At(at)) {
			if !set[id] {
				covered = false
				break
			}
		}
		if covered {
			stats.Coverage++
		}
	}

	skips := runBroadcast(clock, p, cond.Up, broadcastDur, []*viewerSim{v}, nil, nil, nil)
	res := v.finish()
	res.SkippedSegments = skips
	if n := len(fetched); n > 0 {
		stats.FetchShare = shareSum / float64(n)
	}
	if stats.Segments > 0 {
		stats.Coverage /= float64(stats.Segments)
	}
	return res, stats
}
