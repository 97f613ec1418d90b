// Package trace synthesizes the viewing behaviour data Sperke's
// head-movement prediction learns from (§3.2). The paper's agenda rests
// on crowd-sourced "big data" collected from a player app in the wild;
// offline we generate it: a regime-switching head-movement model
// (fixation / smooth pursuit / saccade, matching the short-horizon
// predictability reported by [16, 37]), per-video attention hotspots
// that correlate viewers with each other (the crowd signal), and user
// profiles carrying the §3.2 contextual features — head-speed scale,
// pose, watching mode.
package trace

import (
	"fmt"
	"math/rand"
	"time"

	"sperke/internal/sphere"
)

// Sample is one sensor reading: the viewer's orientation at a time.
type Sample struct {
	At   time.Duration
	View sphere.Orientation
}

// HeadTrace is a time series of orientation samples at a fixed rate
// (the paper collects 50 Hz readings, §3.2).
type HeadTrace struct {
	Samples []Sample
}

// Duration returns the time of the last sample.
func (h *HeadTrace) Duration() time.Duration {
	if len(h.Samples) == 0 {
		return 0
	}
	return h.Samples[len(h.Samples)-1].At
}

// At returns the interpolated orientation at time ts, clamping outside
// the trace.
func (h *HeadTrace) At(ts time.Duration) sphere.Orientation {
	n := len(h.Samples)
	if n == 0 {
		return sphere.Orientation{}
	}
	if ts <= h.Samples[0].At {
		return h.Samples[0].View
	}
	if ts >= h.Samples[n-1].At {
		return h.Samples[n-1].View
	}
	// Samples are uniform; locate by index then refine.
	lo, hi := 0, n-1
	for lo+1 < hi {
		mid := (lo + hi) / 2
		if h.Samples[mid].At <= ts {
			lo = mid
		} else {
			hi = mid
		}
	}
	a, b := h.Samples[lo], h.Samples[hi]
	span := b.At - a.At
	if span <= 0 {
		return a.View
	}
	t := float64(ts-a.At) / float64(span)
	return sphere.Lerp(a.View, b.View, t)
}

// Pose is the viewer's body position (§3.2 contextual information).
type Pose int

// Poses the paper's app would label.
const (
	sitting Pose = iota
	standing
	Lying
)

func (p Pose) String() string {
	switch p {
	case sitting:
		return "sitting"
	case standing:
		return "standing"
	case Lying:
		return "lying"
	default:
		return fmt.Sprintf("pose(%d)", int(p))
	}
}

// Context carries the lightweight contextual features of §3.2.
type Context struct {
	Pose    Pose
	headset bool    // headset vs bare-smartphone viewing
	Engaged float64 // engagement level in [0,1] from reaction sensing [15]
}

// YawRange returns the reachable yaw half-range in degrees given the
// context: lying viewers cannot comfortably look 180° behind (§3.2).
func (c Context) YawRange() float64 {
	if c.Pose == Lying {
		return 110
	}
	if c.Pose == sitting && !c.headset {
		return 150
	}
	return 180
}

// UserProfile describes one viewer in the population.
type UserProfile struct {
	// SpeedScale multiplies the base head-movement speed; learned
	// per-user in §3.2 to bound fetch latency for distant tiles.
	SpeedScale float64
	Context    Context
}

// Hotspot is a region of interest in the video that attracts viewers'
// gaze over an interval — the cross-user structure the crowd predictor
// of §3.2 exploits.
type Hotspot struct {
	Center   sphere.Orientation
	Start    time.Duration
	Duration time.Duration
	// Drift is the hotspot's own angular velocity (a moving subject),
	// degrees/second in yaw.
	Drift float64
	// Pull is the probability per decision epoch that a viewer
	// re-targets this hotspot.
	Pull float64
}

// activeAt reports whether the hotspot is active at ts and its current
// center (it drifts while active).
func (h Hotspot) activeAt(ts time.Duration) (sphere.Orientation, bool) {
	if ts < h.Start || ts >= h.Start+h.Duration {
		return sphere.Orientation{}, false
	}
	el := (ts - h.Start).Seconds()
	c := h.Center
	c.Yaw = sphere.NormalizeYaw(c.Yaw + h.Drift*el)
	return c, true
}

// Attention is a video's schedule of hotspots.
type Attention struct {
	Hotspots []Hotspot
}

// GenerateAttention builds a random hotspot schedule for a video of the
// given duration: at any time 1–2 hotspots are active, mostly near the
// equator (content is horizon-centric), each lasting 5–15 s.
func GenerateAttention(rng *rand.Rand, dur time.Duration) *Attention {
	var a Attention
	prevYaw := rng.Float64()*360 - 180
	for t := time.Duration(0); t < dur; {
		// Consecutive hotspots are spatially correlated: real scenes move
		// the action gradually, which is what lets viewers track it.
		prevYaw = sphere.NormalizeYaw(prevYaw + rng.NormFloat64()*50)
		h := Hotspot{
			Center: sphere.Orientation{
				Yaw:   prevYaw,
				Pitch: rng.NormFloat64() * 15,
			}.Normalized(),
			Start:    t,
			Duration: time.Duration(5+rng.Float64()*10) * time.Second,
			Drift:    rng.NormFloat64() * 3,
			Pull:     0.5 + rng.Float64()*0.4,
		}
		a.Hotspots = append(a.Hotspots, h)
		// Occasionally overlap a second hotspot.
		if rng.Float64() < 0.4 {
			h2 := h
			h2.Center = sphere.Orientation{
				Yaw:   sphere.NormalizeYaw(h.Center.Yaw + 90 + rng.Float64()*90),
				Pitch: rng.NormFloat64() * 15,
			}.Normalized()
			h2.Pull = 0.3
			a.Hotspots = append(a.Hotspots, h2)
		}
		t += h.Duration
	}
	return &a
}

// appendActive appends the hotspots active at ts, with their drifted
// centers, to dst, so a caller that asks many times can reuse one
// buffer.
func (a *Attention) appendActive(dst []Hotspot, ts time.Duration) []Hotspot {
	for _, h := range a.Hotspots {
		if c, ok := h.activeAt(ts); ok {
			h.Center = c
			dst = append(dst, h)
		}
	}
	return dst
}
