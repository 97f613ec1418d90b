package trace

import (
	"math"
	"math/rand"
	"testing"
	"time"

	"sperke/internal/sphere"
)

// generateRef is the body Generate had before it cached the target's
// direction vector, kept verbatim as the oracle: it calls
// sphere.AngularDistance on every sample and sizes the trace without
// looking at the sign of dur.
func generateRef(rng *rand.Rand, profile UserProfile, attention *Attention, dur time.Duration) *HeadTrace {
	dt := time.Second / sampleRate
	n := int(dur/dt) + 1
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
	target := cur
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

	retarget := func(ts time.Duration) {
		hs := attention.appendActive(nil, ts)
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
			target = clampYaw(sphere.Orientation{
				Yaw:   pick.Center.Yaw + rng.NormFloat64()*8,
				Pitch: pick.Center.Pitch + rng.NormFloat64()*6,
			})
			return
		}
		target = clampYaw(sphere.Orientation{
			Yaw:   cur.Yaw + rng.NormFloat64()*30,
			Pitch: rng.NormFloat64() * 15,
		})
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
					target = clampYaw(sphere.Orientation{
						Yaw:   rng.Float64()*2*yawRange - yawRange,
						Pitch: rng.NormFloat64() * 25,
					})
				}
			case r < 0.45:
				state = pursuit
				retarget(ts)
			default:
				state = fixation
			}
		}

		// Advance toward the target.
		dist := sphere.AngularDistance(cur, target)
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

// sameBits reports whether two samples are the same floats, bit for
// bit (so NaNs compare equal and 0 differs from -0).
func sameBits(a, b Sample) bool {
	return a.At == b.At &&
		math.Float64bits(a.View.Yaw) == math.Float64bits(b.View.Yaw) &&
		math.Float64bits(a.View.Pitch) == math.Float64bits(b.View.Pitch) &&
		math.Float64bits(a.View.Roll) == math.Float64bits(b.View.Roll)
}

// TestGenerateMatchesReference: over 1,000 seeded (profile, attention,
// duration) triples Generate returns generateRef's trace float for
// float, and leaves the random stream where generateRef leaves it.
func TestGenerateMatchesReference(t *testing.T) {
	pick := rand.New(rand.NewSource(16))
	pop := NewPopulation(pick, 40)
	pop.Users = append(pop.Users, UserProfile{}, UserProfile{SpeedScale: 2.5, Context: Context{Pose: Lying, Engaged: 0.05}})
	for n := 0; n < 1000; n++ {
		profile := pop.Users[n%len(pop.Users)]
		dur := time.Duration(pick.Int63n(int64(40 * time.Second)))
		var att *Attention
		switch n % 4 {
		case 0:
			att = &Attention{} // nothing to follow: the viewer wanders
		case 1:
			att = GenerateAttention(rand.New(rand.NewSource(int64(n))), dur/2) // runs out mid-session
		default:
			att = GenerateAttention(rand.New(rand.NewSource(int64(n))), dur)
		}
		rngGot, rngWant := rand.New(rand.NewSource(int64(n))), rand.New(rand.NewSource(int64(n)))
		got, want := Generate(rngGot, profile, att, dur), generateRef(rngWant, profile, att, dur)
		if len(got.Samples) != len(want.Samples) {
			t.Fatalf("triple %d (%v): %d samples, reference %d", n, dur, len(got.Samples), len(want.Samples))
		}
		for i := range want.Samples {
			if !sameBits(got.Samples[i], want.Samples[i]) {
				t.Fatalf("triple %d (%v): sample %d = %+v, reference %+v", n, dur, i, got.Samples[i], want.Samples[i])
			}
		}
		if rngGot.Int63() != rngWant.Int63() {
			t.Fatalf("triple %d (%v): Generate drew a different number of random values", n, dur)
		}
	}
}

// TestGenerateNegativeDuration is the regression for sizing the trace
// as int(dur/dt)+1 whatever the sign of dur: from -20 ms the trace had
// no sample at all, and from -40 ms down make was asked for a negative
// capacity and panicked. A duration with no time in it yields the t = 0
// sample alone.
func TestGenerateNegativeDuration(t *testing.T) {
	for _, dur := range []time.Duration{0, -time.Nanosecond, -20 * time.Millisecond, -21 * time.Millisecond, -40 * time.Millisecond, -time.Second, math.MinInt64} {
		att := GenerateAttention(rand.New(rand.NewSource(1)), dur)
		if len(att.Hotspots) != 0 {
			t.Fatalf("GenerateAttention(%v) scheduled %d hotspots", dur, len(att.Hotspots))
		}
		h := Generate(rand.New(rand.NewSource(2)), UserProfile{SpeedScale: 1}, att, dur)
		if len(h.Samples) != 1 || h.Samples[0].At != 0 {
			t.Fatalf("Generate(%v) = %d samples, want the t=0 sample alone", dur, len(h.Samples))
		}
		if h.Duration() != 0 || h.At(time.Second) != h.Samples[0].View {
			t.Fatalf("Generate(%v): trace does not read as a single fixed view", dur)
		}
	}
}

// TestDrawIsTheTwoSeedRecipe pins Draw to the spelled-out recipe it
// names: motion from one seed, attention from the other, both over dur.
// The paper tables and the engine's crowd prior depend on it drawing
// exactly these samples.
func TestDrawIsTheTwoSeedRecipe(t *testing.T) {
	const dur = 20 * time.Second
	p := UserProfile{SpeedScale: 1.4}
	want := Generate(rand.New(rand.NewSource(7)), p, GenerateAttention(rand.New(rand.NewSource(67)), dur), dur)
	got := Draw(7, 67, p, dur)
	if len(got.Samples) != len(want.Samples) {
		t.Fatalf("Draw: %d samples, want %d", len(got.Samples), len(want.Samples))
	}
	for i := range want.Samples {
		if got.Samples[i] != want.Samples[i] {
			t.Fatalf("Draw sample %d = %+v, want %+v", i, got.Samples[i], want.Samples[i])
		}
	}
}

// generateMinute is one viewer's head trace for a minute of video, a
// new one each call from the same stream of randomness.
func generateMinute() func() {
	att := GenerateAttention(rand.New(rand.NewSource(1)), time.Minute)
	profile := UserProfile{SpeedScale: 1}
	rng := rand.New(rand.NewSource(2))
	return func() { Generate(rng, profile, att, time.Minute) }
}

// TestGenerateAllocs: the trace, its sample slice sized once from the
// duration, and the retarget scratch as it grows — nothing per sample.
func TestGenerateAllocs(t *testing.T) {
	if n := testing.AllocsPerRun(20, generateMinute()); n > 4 {
		t.Fatalf("Generate allocates %.0f objects for a minute of samples, want at most 4", n)
	}
}

func BenchmarkGenerate(b *testing.B) {
	generate := generateMinute()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		generate()
	}
}
