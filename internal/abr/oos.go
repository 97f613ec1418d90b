package abr

import (
	"cmp"
	"slices"
	"time"

	"sperke/internal/hmp"
	"sperke/internal/tiling"
)

// TileQuality is one planned fetch: a tile at a quality level.
type TileQuality struct {
	Tile    tiling.TileID
	Quality int
	// Probability is the estimated chance the tile ends up in view —
	// 1 for FoV tiles, the HMP/crowd estimate for OOS tiles.
	Probability float64
}

// OOSPolicy parameterizes out-of-sight chunk selection (§3.1.2 part
// two). The zero value is a sensible default.
type OOSPolicy struct {
	// MaxRing caps how many grid rings beyond the FoV may be fetched;
	// 0 defaults to 2.
	MaxRing int
	// QualityDropPerRing lowers OOS quality by this many ladder levels
	// per ring of distance ("the further away ... the lower their
	// qualities", §3.1.1); 0 defaults to 1.
	QualityDropPerRing int
	// BudgetBytes caps the total planned OOS bytes; 0 means no cap.
	BudgetBytes int64
	// MinCrowdProb prunes OOS tiles whose crowd probability falls below
	// this threshold when a heatmap is available.
	MinCrowdProb float64
}

func (p OOSPolicy) maxRing() int {
	if p.MaxRing <= 0 {
		return 2
	}
	return p.MaxRing
}

func (p OOSPolicy) drop() int {
	if p.QualityDropPerRing <= 0 {
		return 1
	}
	return p.QualityDropPerRing
}

// OOSInput gathers what OOS planning consumes.
type OOSInput struct {
	Grid tiling.Grid
	// FoVTiles is the super chunk's tile set (already planned at FoVQuality).
	FoVTiles   []tiling.TileID
	FoVQuality int
	// Prediction provides the uncertainty radius that sizes the rings.
	Prediction hmp.Prediction
	// Heatmap, when non-nil, reweights and prunes OOS tiles by crowd
	// probability (§3.2).
	Heatmap *hmp.Heatmap
	// At is the chunk interval start the plan targets.
	At time.Duration
	// SizeAt returns the fetch size of one tile-chunk at quality q.
	SizeAt func(tile tiling.TileID, q int) int64
}

// PlanOOS selects the out-of-sight tiles to fetch around a super chunk
// and their qualities. The ring count grows with prediction
// uncertainty; quality falls with ring distance; the crowd heatmap
// promotes popular tiles and prunes unpopular ones; and an optional
// byte budget truncates the plan lowest-probability-first.
func PlanOOS(in OOSInput, pol OOSPolicy) []TileQuality {
	if in.FoVQuality < 0 {
		return nil
	}
	// Ring count from uncertainty: one ring per tile-width of prediction
	// radius beyond the FoV edge.
	tileWidthDeg := 360.0 / float64(in.Grid.Cols)
	rings := int(in.Prediction.Radius/tileWidthDeg) + 1
	if rings > pol.maxRing() {
		rings = pol.maxRing()
	}
	// Fully random head movement (radius ≈ 180) floods the whole sphere —
	// the §3.1.2 worst case — which MaxRing caps.

	// One distance pass serves every ring; FoV tiles sit at distance 0
	// and so are in none.
	dist := tiling.Distances(in.Grid, in.FoVTiles)
	// The tiles in rings 1..rings bound the plan: size it once.
	var plan []TileQuality
	inRings := 0
	for _, d := range dist {
		if d >= 1 && d <= rings {
			inRings++
		}
	}
	if inRings > 0 {
		plan = make([]TileQuality, 0, inRings)
	}
	for ring := 1; ring <= rings; ring++ {
		q := in.FoVQuality - ring*pol.drop()
		if q < 0 {
			q = 0
		}
		for i, d := range dist {
			if d != ring {
				continue
			}
			id := tiling.TileID(i)
			prob := probForRing(ring, in.Prediction.Radius, tileWidthDeg)
			tileQ := q
			if in.Heatmap != nil {
				cp := in.Heatmap.Probability(in.At, id)
				// Blend personal-motion geometry with crowd statistics.
				prob = 0.5*prob + 0.5*cp
				if cp < pol.MinCrowdProb {
					if ring > 1 {
						continue // crowd says nobody looks there
					}
					// Near ring: keep coverage, but cheapen it.
					if tileQ > 0 {
						tileQ--
					}
				}
				// Strongly crowd-favored tiles ride one level higher —
				// "use the crowd-sourced data to add OOS chunks" (§3.2).
				if cp > 0.75 && tileQ < in.FoVQuality-1 {
					tileQ++
				}
			}
			plan = append(plan, TileQuality{Tile: id, Quality: tileQ, Probability: prob})
		}
	}
	// Deterministic order: probability desc, then tile ID.
	slices.SortStableFunc(plan, func(a, b TileQuality) int {
		if c := cmp.Compare(b.Probability, a.Probability); c != 0 {
			return c
		}
		return cmp.Compare(a.Tile, b.Tile)
	})
	// Byte budget: keep the most probable tiles.
	if pol.BudgetBytes > 0 && in.SizeAt != nil {
		var used int64
		kept := plan[:0]
		for _, tq := range plan {
			sz := in.SizeAt(tq.Tile, tq.Quality)
			if used+sz > pol.BudgetBytes {
				continue
			}
			used += sz
			kept = append(kept, tq)
		}
		plan = kept
	}
	return plan
}

// probForRing estimates the chance the view drifts into a given ring:
// a triangular falloff of the prediction radius across rings.
func probForRing(ring int, radius, tileWidthDeg float64) float64 {
	if radius <= 0 {
		return 0.05
	}
	// Distance to the ring's inner edge in degrees.
	d := float64(ring-1) * tileWidthDeg
	p := 0.6 * (1 - d/(radius+tileWidthDeg))
	if p < 0.05 {
		p = 0.05
	}
	if p > 0.95 {
		p = 0.95
	}
	return p
}
