package hmp

import (
	"sort"
	"time"

	"sperke/internal/sphere"
	"sperke/internal/tiling"
	"sperke/internal/trace"
)

// Heatmap holds crowd-sourced viewing statistics for one video: for
// each chunk interval, the probability that each tile falls in a
// viewer's FoV. This is the "viewing statistics of the same video
// across users" dimension of §3.2, and the direct input to
// probability-weighted OOS selection.
type Heatmap struct {
	Grid     tiling.Grid
	ChunkDur time.Duration

	// prob[interval][tile] = fraction of sessions whose FoV covered the
	// tile at any sample inside the interval.
	prob [][]float64
	// center[interval] = crowd mean view direction.
	center []sphere.Orientation
}

// probes is how many views of each session BuildHeatmap asks vp about
// per interval, evenly spaced from the interval's start.
const probes = 4

// BuildHeatmap aggregates a set of sessions (head traces of different
// users watching the same video through the viewport vp) into a heatmap
// over vp's grid. Intervals are [i·chunkDur, (i+1)·chunkDur). Its cost
// is intervals × sessions × probes viewport queries.
func BuildHeatmap(vp tiling.Viewport, chunkDur, videoDur time.Duration, sessions []*trace.HeadTrace) *Heatmap {
	g := vp.Grid()
	n := int(videoDur / chunkDur)
	if videoDur%chunkDur != 0 {
		n++
	}
	h := &Heatmap{
		Grid:     g,
		ChunkDur: chunkDur,
		prob:     make([][]float64, n),
		center:   make([]sphere.Orientation, n),
	}
	for i := range h.prob {
		h.prob[i] = make([]float64, g.Tiles())
	}
	if len(sessions) == 0 {
		return h
	}
	// seen marks the tiles one session's probes cover in one interval;
	// counts[tile] is how many sessions' probes covered it.
	seen := make([]bool, g.Tiles())
	counts := make([]int, g.Tiles())
	for i := 0; i < n; i++ {
		start := time.Duration(i) * chunkDur
		var sumVec sphere.Vec3
		clear(counts)
		for _, s := range sessions {
			clear(seen)
			for k := 0; k < probes; k++ {
				ts := start + time.Duration(k)*chunkDur/probes
				view := s.At(ts)
				d := view.Direction()
				sumVec.X += d.X
				sumVec.Y += d.Y
				sumVec.Z += d.Z
				vp.Mark(view, seen)
			}
			for tile, in := range seen {
				if in {
					counts[tile]++
				}
			}
		}
		for tile, c := range counts {
			h.prob[i][tile] = float64(c) / float64(len(sessions))
		}
		h.center[i] = sphere.FromDirection(sumVec)
	}
	return h
}

// Intervals returns the number of chunk intervals covered.
func (h *Heatmap) Intervals() int { return len(h.prob) }

// interval maps a time to an interval index, clamped into range.
func (h *Heatmap) interval(at time.Duration) int {
	if h.ChunkDur <= 0 || len(h.prob) == 0 {
		return 0
	}
	i := int(at / h.ChunkDur)
	if i < 0 {
		i = 0
	}
	if i >= len(h.prob) {
		i = len(h.prob) - 1
	}
	return i
}

// Probability returns the crowd viewing probability of a tile during
// the interval containing at.
func (h *Heatmap) Probability(at time.Duration, tile tiling.TileID) float64 {
	if len(h.prob) == 0 || !h.Grid.Valid(tile) {
		return 0
	}
	return h.prob[h.interval(at)][tile]
}

// TopTiles returns the k most-viewed tiles for the interval containing
// at, most popular first. Ties break toward lower tile IDs for
// determinism.
func (h *Heatmap) TopTiles(at time.Duration, k int) []tiling.TileID {
	if len(h.prob) == 0 || k <= 0 {
		return nil
	}
	row := h.prob[h.interval(at)]
	ids := make([]tiling.TileID, len(row))
	for i := range ids {
		ids[i] = tiling.TileID(i)
	}
	sort.SliceStable(ids, func(a, b int) bool {
		if row[ids[a]] != row[ids[b]] {
			return row[ids[a]] > row[ids[b]]
		}
		return ids[a] < ids[b]
	})
	if k > len(ids) {
		k = len(ids)
	}
	return ids[:k]
}

// TopTilesAt returns up to k tile IDs for chunk interval index,
// most-viewed first, with ties broken toward lower IDs — the
// plain-int form of TopTiles keyed directly by chunk index. Chunk
// index and heatmap interval share an axis (intervals are
// [i·ChunkDur, (i+1)·ChunkDur), exactly the chunk boundaries), so a
// cache tier that knows which chunk it just served can ask for the
// crowd's likely co-requests without converting through time or
// importing the tiling types. Out-of-range indexes clamp like
// interval() does. Unlike TopTiles, tiles no session ever viewed are
// omitted — a zero-probability candidate is a wasted speculative
// fetch, not a ranked one — so fewer than k tiles may come back.
func (h *Heatmap) TopTilesAt(index, k int) []int {
	if len(h.prob) == 0 || k <= 0 {
		return nil
	}
	if index < 0 {
		index = 0
	}
	if index >= len(h.prob) {
		index = len(h.prob) - 1
	}
	row := h.prob[index]
	ids := make([]int, len(row))
	for i := range ids {
		ids[i] = i
	}
	sort.SliceStable(ids, func(a, b int) bool {
		if row[ids[a]] != row[ids[b]] {
			return row[ids[a]] > row[ids[b]]
		}
		return ids[a] < ids[b]
	})
	viewed := len(ids)
	for i, id := range ids {
		if row[id] == 0 {
			viewed = i
			break
		}
	}
	if k > viewed {
		k = viewed
	}
	if k == 0 {
		return nil
	}
	return ids[:k]
}

// CrowdCenter returns the crowd's mean viewing direction during the
// interval containing at.
func (h *Heatmap) CrowdCenter(at time.Duration) sphere.Orientation {
	if len(h.center) == 0 {
		return sphere.Orientation{}
	}
	return h.center[h.interval(at)]
}

// Crowd predicts from the heatmap alone: everyone is assumed to look
// where the crowd looked. Useful for long horizons where individual
// motion has decorrelated ("making long-term prediction feasible",
// §3.2), and for live viewers with no personal history (§3.4.2).
type Crowd struct {
	Heatmap *Heatmap

	last trace.Sample
	seen bool
}

// Name implements Predictor.
func (c *Crowd) Name() string { return "crowd" }

// Observe implements Predictor.
func (c *Crowd) Observe(s trace.Sample) {
	c.last = s
	c.seen = true
}

// Predict implements Predictor.
func (c *Crowd) Predict(at time.Duration) Prediction {
	if c.Heatmap == nil || c.Heatmap.Intervals() == 0 {
		return Prediction{Radius: 180}
	}
	// Crowd dispersion sets the radius: if the top tile probability is
	// high the crowd is concentrated.
	top := c.Heatmap.TopTiles(at, 1)
	radius := 60.0
	if len(top) > 0 {
		p := c.Heatmap.Probability(at, top[0])
		radius = 20 + (1-p)*70
	}
	return Prediction{View: c.Heatmap.CrowdCenter(at), Radius: radius}
}

// Fusion is the §3.2 "data fusion" predictor: short horizons follow the
// user's own motion (linear extrapolation); long horizons blend toward
// the crowd; the user's speed bound caps the predicted
// displacement; and the viewing context prunes unreachable directions
// (a lying viewer will not look 180° behind).
type Fusion struct {
	Linear  LinearRegression
	Heatmap *Heatmap
	// SpeedBound is the user's max head speed in degrees/second, which
	// §3.2 proposes learning per user (0 = unknown, no cap).
	SpeedBound float64
	// Context prunes the yaw range; nil imposes no pruning.
	Context *trace.Context

	last trace.Sample
	seen bool
}

// crowdHorizon is the prediction horizon at which Fusion's crowd weight
// reaches 1.
const crowdHorizon = 2 * time.Second

// Name implements Predictor.
func (f *Fusion) Name() string { return "fusion" }

// Observe implements Predictor.
func (f *Fusion) Observe(s trace.Sample) {
	f.Linear.Observe(s)
	f.last = s
	f.seen = true
}

// Predict implements Predictor.
func (f *Fusion) Predict(at time.Duration) Prediction {
	lp := f.Linear.Predict(at)
	if !f.seen {
		return lp
	}
	horizon := (at - f.last.At).Seconds()
	if horizon < 0 {
		horizon = 0
	}
	view := lp.View
	radius := lp.Radius

	// Blend toward the crowd as the horizon grows.
	if f.Heatmap != nil && f.Heatmap.Intervals() > 0 {
		w := horizon / crowdHorizon.Seconds()
		if w > 1 {
			w = 1
		}
		// Personal motion dominates below ~1/3 of the crowd horizon.
		if w > 0.3 {
			crowd := f.Heatmap.CrowdCenter(at)
			blend := (w - 0.3) / 0.7
			view = sphere.Lerp(view, crowd, blend*0.8)
			// Crowd agreement tightens the radius at long horizons.
			top := f.Heatmap.TopTiles(at, 1)
			if len(top) > 0 {
				p := f.Heatmap.Probability(at, top[0])
				crowdRadius := 20 + (1-p)*70
				radius = radius*(1-blend*0.6) + crowdRadius*blend*0.6
			}
		}
	}

	// Cap displacement by the user's speed bound.
	if f.SpeedBound > 0 {
		maxMove := f.SpeedBound * horizon
		if d := sphere.AngularDistance(f.last.View, view); d > maxMove {
			t := maxMove / d
			view = sphere.Lerp(f.last.View, view, t)
			if radius > maxMove+20 {
				radius = maxMove + 20
			}
		}
	}

	// Context pruning: clamp yaw into the reachable range.
	if f.Context != nil {
		yr := f.Context.YawRange()
		if view.Yaw > yr {
			view.Yaw = yr
		}
		if view.Yaw < -yr {
			view.Yaw = -yr
		}
	}
	return Prediction{View: view.Normalized(), Radius: radius}
}
