// Package abr implements video rate adaptation for tiled 360° streaming
// (§3.1.2). The design follows the paper's three-part decomposition:
//
//  1. With perfect HMP, FoV-guided VRA reduces to regular VRA over
//     "super chunks" — the minimal tile sets covering each predicted
//     FoV, all fetched at one quality. Classic algorithms plug in here:
//     throughput-based [29], buffer-based [28], and a control-theoretic
//     lookahead [44].
//  2. Imperfect HMP is absorbed by adding out-of-sight (OOS) chunks
//     around the FoV, their number and quality driven by prediction
//     uncertainty, bandwidth budget, and crowd statistics (§3.2).
//  3. Incremental chunk upgrades (§3.1.1): when HMP revises its
//     forecast, already-fetched chunks can be raised to higher quality —
//     by fetching only enhancement layers under SVC, or by a full
//     re-fetch under AVC.
package abr

import (
	"fmt"
	"time"

	"sperke/internal/media"
)

// Context is the input snapshot a VRA algorithm decides from.
type Context struct {
	// EstimatedBandwidth is the smoothed throughput estimate, bits/s.
	EstimatedBandwidth float64
	// Buffer is the current playable buffer ahead of the playhead.
	Buffer time.Duration
	// MaxBuffer is the buffer ceiling the player can fill. For
	// FoV-guided streaming this is effectively the HMP prediction
	// window: fetching beyond it means fetching blind (§3.1.2's argument
	// against buffer-based VRA here).
	MaxBuffer time.Duration
	// ChunkDuration is the temporal chunk length.
	ChunkDuration time.Duration
	// Ladder is the video's quality ladder.
	Ladder []media.QualityLevel
	// SizeAt returns the fetch size in bytes of the next super chunk at
	// quality q.
	SizeAt func(q int) int64
	// LastQuality is the previously chosen quality (-1 before the first
	// choice).
	LastQuality int
}

// qualities returns the ladder length, guarding empty ladders.
func (c *Context) qualities() int { return len(c.Ladder) }

// Algorithm picks the quality level for the next super chunk.
type Algorithm interface {
	// Name identifies the algorithm in experiment output.
	Name() string
	// ChooseQuality returns a ladder index in [0, len(Ladder)).
	ChooseQuality(ctx Context) int
}

// Throughput is rate-based VRA in the FESTIVE tradition [29]: pick the
// highest quality whose super-chunk rate fits inside throughputSafety
// of estimated bandwidth, moving at most one level per decision to
// avoid oscillation.
type Throughput struct{}

// throughputSafety is the usable fraction of the bandwidth estimate.
const throughputSafety = 0.85

// Name implements Algorithm.
func (t *Throughput) Name() string { return "throughput" }

// ChooseQuality implements Algorithm.
func (t *Throughput) ChooseQuality(ctx Context) int {
	if ctx.qualities() == 0 {
		return 0
	}
	budget := ctx.EstimatedBandwidth * throughputSafety
	best := 0
	for q := 0; q < ctx.qualities(); q++ {
		rate := float64(ctx.SizeAt(q)) * 8 / ctx.ChunkDuration.Seconds()
		if rate <= budget {
			best = q
		}
	}
	// Gradual switching: at most one level up per decision; drops are
	// immediate (stalls hurt more than switches).
	if ctx.LastQuality >= 0 && best > ctx.LastQuality+1 {
		best = ctx.LastQuality + 1
	}
	return best
}

// bufferBased is buffer-based VRA in the BBA tradition [28]: quality is a
// linear function of buffer occupancy between a reservoir and a
// cushion. With the short buffers FoV-guided streaming permits (the
// MaxBuffer ≈ HMP window constraint), the mapping compresses and the
// algorithm hugs low qualities — exactly the §3.1.2 concern.
type bufferBased struct{}

// The reservoir and cushion position bufferBased's linear ramp as fractions
// of MaxBuffer.
const (
	bufferReservoir = 0.2
	bufferCushion   = 0.9
)

// Name implements Algorithm.
func (b *bufferBased) Name() string { return "buffer" }

// ChooseQuality implements Algorithm.
func (b *bufferBased) ChooseQuality(ctx Context) int {
	n := ctx.qualities()
	if n == 0 {
		return 0
	}
	maxBuf := ctx.MaxBuffer
	if maxBuf <= 0 {
		maxBuf = 30 * time.Second
	}
	occ := float64(ctx.Buffer) / float64(maxBuf)
	switch {
	case occ <= bufferReservoir:
		return 0
	case occ >= bufferCushion:
		return n - 1
	default:
		frac := (occ - bufferReservoir) / (bufferCushion - bufferReservoir)
		q := int(frac * float64(n-1))
		if q >= n {
			q = n - 1
		}
		return q
	}
}

// mpc is a control-theoretic lookahead in the spirit of [44]: simulate
// the next mpcHorizon chunks for each candidate quality path (restricted
// to bounded level changes) and pick the first step of the path
// maximizing a QoE objective of quality reward, switch penalty
// (mpcSwitchPenalty per level changed) and predicted stall penalty
// (mpcStallPenalty per stalled second).
type mpc struct{}

const (
	mpcHorizon       = 3
	mpcSwitchPenalty = 1.0
	mpcStallPenalty  = 8.0
)

// Name implements Algorithm.
func (m *mpc) Name() string { return "mpc" }

// ChooseQuality implements Algorithm.
func (m *mpc) ChooseQuality(ctx Context) int {
	n := ctx.qualities()
	if n == 0 {
		return 0
	}
	bw := ctx.EstimatedBandwidth
	if bw <= 0 {
		return 0
	}
	// Exhaustive search over quality paths with bounded level changes
	// (±1 per step after the first), as [44]'s fastMPC table-lookup
	// approximates. The first step ranges over all qualities; the
	// branching factor of 3 keeps the search at 3^(mpcHorizon-1) per
	// starting level.
	bestQ, bestScore := 0, -1e18
	var walk func(q, prev, step int, buffer, score float64)
	walk = func(q, prev, step int, buffer, score float64) {
		fetchSec := float64(ctx.SizeAt(q)) * 8 / bw
		buffer -= fetchSec
		if buffer < 0 {
			score -= mpcStallPenalty * -buffer // stall seconds
			buffer = 0
		}
		buffer += ctx.ChunkDuration.Seconds()
		if max := ctx.MaxBuffer.Seconds(); max > 0 && buffer > max {
			buffer = max
		}
		score += float64(q+1) / float64(n)
		if prev >= 0 && q != prev {
			score -= mpcSwitchPenalty * float64(abs(q-prev)) / float64(n)
		}
		if step+1 >= mpcHorizon {
			if score > bestScore {
				bestScore = score
				// bestQ is set by the caller of the first step.
			}
			return
		}
		for _, next := range []int{q - 1, q, q + 1} {
			if next < 0 || next >= n {
				continue
			}
			walk(next, q, step+1, buffer, score)
		}
	}
	for q := 0; q < n; q++ {
		before := bestScore
		walk(q, ctx.LastQuality, 0, ctx.Buffer.Seconds(), 0)
		if bestScore > before {
			bestQ = q
		}
	}
	return bestQ
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

// ByName returns a fresh algorithm by its Name, for CLI flags.
func ByName(name string) (Algorithm, error) {
	switch name {
	case "throughput":
		return &Throughput{}, nil
	case "buffer":
		return &bufferBased{}, nil
	case "mpc":
		return &mpc{}, nil
	default:
		return nil, fmt.Errorf("abr: unknown algorithm %q", name)
	}
}

// Fixed always returns the same quality level (clamped to the ladder) —
// the controlled setting bandwidth-saving comparisons use: hold quality
// constant, compare bytes (§2's 45%/60–80% savings are measured this
// way).
type Fixed struct {
	// Q is the ladder index to hold.
	Q int
}

// Name implements Algorithm.
func (f *Fixed) Name() string { return "fixed" }

// ChooseQuality implements Algorithm.
func (f *Fixed) ChooseQuality(ctx Context) int {
	n := ctx.qualities()
	if n == 0 {
		return 0
	}
	q := f.Q
	if q < 0 {
		q = 0
	}
	if q >= n {
		q = n - 1
	}
	return q
}
