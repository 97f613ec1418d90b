package trace

import (
	"math"
	"math/rand"
	"time"

	"sperke/internal/sphere"
)

// regime is the head-movement state of the generator's Markov model.
type regime int

const (
	fixation regime = iota // micro-drift around the current target
	pursuit                // smooth bounded-speed move to a new target
	saccade                // fast reorientation
)

// sampleRate is the generated sensor rate: 50 Hz, the rate the paper's
// app collects (§3.2).
const sampleRate = 50

// Generate synthesizes one viewing session: the user's head trace while
// watching a video with the given attention schedule.
//
// The model: viewers fixate on a hotspot most of the time (slow drift),
// periodically pursue a newly interesting hotspot at a bounded speed
// scaled by the user's SpeedScale, and occasionally saccade to an
// idiosyncratic direction. Low-engagement viewers wander more. The
// context's yaw range is enforced throughout. The result reproduces the
// two properties the paper builds on: short-horizon predictability from
// recent motion [16, 37] and cross-user correlation through hotspots.
// A zero or negative dur yields the t = 0 sample alone.
func Generate(rng *rand.Rand, profile UserProfile, attention *Attention, dur time.Duration) *HeadTrace {
	dt := time.Second / sampleRate
	n := 1 // the t = 0 sample, all there is of a zero or negative duration
	if dur > 0 {
		n += int(dur / dt)
	}
	h := &HeadTrace{Samples: make([]Sample, 0, n)}

	speed := profile.SpeedScale
	if speed <= 0 {
		speed = 1
	}
	yawRange := profile.Context.YawRange()
	engage := profile.Context.Engaged
	if engage <= 0 {
		engage = 0.7
	}

	cur := sphere.Orientation{Yaw: rng.NormFloat64() * 20}
	// target moves only on a retarget, a few times a second against 50
	// samples: setTarget keeps its direction vector beside it so the
	// per-sample distance below does not rebuild it.
	var target sphere.Orientation
	var targetDir sphere.Vec3
	setTarget := func(o sphere.Orientation) {
		target, targetDir = o, o.Direction()
	}
	state := fixation
	// Base speeds in degrees/second.
	pursuitSpeed := 35 * speed
	saccadeSpeed := 220 * speed

	clampYaw := func(o sphere.Orientation) sphere.Orientation {
		if o.Yaw > yawRange {
			o.Yaw = yawRange
		}
		if o.Yaw < -yawRange {
			o.Yaw = -yawRange
		}
		return o.Normalized()
	}

	var hs []Hotspot // retarget's scratch, reused across its calls
	retarget := func(ts time.Duration) {
		hs = attention.appendActive(hs[:0], ts)
		// Engaged viewers follow hotspots; disengaged ones wander.
		if len(hs) > 0 && rng.Float64() < engage {
			pick := hs[0]
			if len(hs) > 1 {
				// Weight by pull.
				total := 0.0
				for _, x := range hs {
					total += x.Pull
				}
				r := rng.Float64() * total
				for _, x := range hs {
					r -= x.Pull
					if r <= 0 {
						pick = x
						break
					}
				}
			}
			// Personal offset around the hotspot.
			setTarget(clampYaw(sphere.Orientation{
				Yaw:   pick.Center.Yaw + rng.NormFloat64()*8,
				Pitch: pick.Center.Pitch + rng.NormFloat64()*6,
			}))
			return
		}
		setTarget(clampYaw(sphere.Orientation{
			Yaw:   cur.Yaw + rng.NormFloat64()*30,
			Pitch: rng.NormFloat64() * 15,
		}))
	}
	retarget(0)

	for i := 0; i < n; i++ {
		ts := time.Duration(i) * dt
		h.Samples = append(h.Samples, Sample{At: ts, View: cur})

		// State transitions, evaluated each ~200 ms on average.
		if rng.Float64() < float64(dt)/float64(200*time.Millisecond) {
			r := rng.Float64()
			switch {
			case r < 0.10: // rare saccade
				state = saccade
				retarget(ts)
				// Saccades sometimes go to idiosyncratic directions.
				if rng.Float64() > engage {
					setTarget(clampYaw(sphere.Orientation{
						Yaw:   rng.Float64()*2*yawRange - yawRange,
						Pitch: rng.NormFloat64() * 25,
					}))
				}
			case r < 0.45:
				state = pursuit
				retarget(ts)
			default:
				state = fixation
			}
		}

		// Advance toward the target.
		dist := angleTo(cur, targetDir)
		var stepDeg float64
		switch state {
		case fixation:
			stepDeg = 4 * dt.Seconds() // micro-drift
			// Fixation jitter.
			cur = clampYaw(sphere.Orientation{
				Yaw:   cur.Yaw + rng.NormFloat64()*0.15,
				Pitch: cur.Pitch + rng.NormFloat64()*0.1,
			})
		case pursuit:
			stepDeg = pursuitSpeed * dt.Seconds()
			// Humans cover large reorientations with a saccade rather
			// than a long slow pursuit.
			if dist > 60 {
				stepDeg = saccadeSpeed * dt.Seconds()
			}
		case saccade:
			stepDeg = saccadeSpeed * dt.Seconds()
		}
		if dist > 1e-6 {
			t := stepDeg / dist
			if t > 1 {
				t = 1
			}
			cur = clampYaw(sphere.Lerp(cur, target, t))
		} else if state != fixation {
			state = fixation
		}
	}
	return h
}

// Draw is the simulated viewer's head recipe: Generate with motion
// seeded from motion, over an attention schedule seeded from attention
// and spanning dur. Every synthetic single viewer — the experiment
// suite's sessions, the serving engine's viewers, sperke-player — draws
// its head here, so the same two seeds give the same head everywhere.
func Draw(motion, attention int64, p UserProfile, dur time.Duration) *HeadTrace {
	return Generate(rand.New(rand.NewSource(motion)), p,
		GenerateAttention(rand.New(rand.NewSource(attention)), dur), dur)
}

// angleTo is sphere.AngularDistance(o, b), float for float, given b's
// direction vector instead of b.
func angleTo(o sphere.Orientation, dir sphere.Vec3) float64 {
	d := o.Direction().Dot(dir)
	if d < -1 {
		d = -1
	}
	if d > 1 {
		d = 1
	}
	return math.Acos(d) * 180 / math.Pi
}

// Population is a set of viewer profiles with realistic diversity.
type Population struct {
	Users []UserProfile
}

// NewPopulation builds n users with varied speed scales and contexts.
func NewPopulation(rng *rand.Rand, n int) *Population {
	p := &Population{Users: make([]UserProfile, n)}
	for i := range p.Users {
		// Log-normal-ish speed distribution: most near 1, some slow
		// (elderly, §3.2) and some fast.
		speed := 0.5 + rng.Float64()
		if rng.Float64() < 0.15 {
			speed *= 0.5 // slow movers
		}
		ctx := Context{
			Pose:    Pose(rng.Intn(3)),
			headset: rng.Intn(2) == 1,
		}
		// Two draws no field keeps (§3.2's mobility and indoors labels):
		// they stay so every population keeps its random stream.
		rng.Float64()
		rng.Float64()
		ctx.Engaged = 0.4 + 0.6*rng.Float64()
		p.Users[i] = UserProfile{SpeedScale: speed, Context: ctx}
	}
	return p
}

// Sessions generates one head trace per user for the same video — the
// dataset the crowd-sourced predictor trains on (§3.2).
func (p *Population) Sessions(rng *rand.Rand, attention *Attention, dur time.Duration) []*HeadTrace {
	out := make([]*HeadTrace, len(p.Users))
	for i, u := range p.Users {
		// Derive a per-user RNG so adding users doesn't shift others.
		userRNG := rand.New(rand.NewSource(rng.Int63() ^ int64(i)*2654435761))
		out[i] = Generate(userRNG, u, attention, dur)
	}
	return out
}
