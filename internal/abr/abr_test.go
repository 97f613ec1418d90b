package abr

import (
	"testing"
	"time"

	"sperke/internal/media"
	"sperke/internal/tiling"
)

// testCtx builds a Context over the default ladder where a super chunk
// at quality q costs exactly the ladder rate × chunk duration (8 tiles'
// worth ≈ whole-FoV share).
func testCtx(bw float64, buffer, maxBuffer time.Duration, lastQ int) Context {
	ladder := media.DefaultLadder
	chunkDur := 2 * time.Second
	return Context{
		EstimatedBandwidth: bw,
		Buffer:             buffer,
		MaxBuffer:          maxBuffer,
		ChunkDuration:      chunkDur,
		Ladder:             ladder,
		LastQuality:        lastQ,
		SizeAt: func(q int) int64 {
			// A super chunk covers ~40% of the panorama.
			return int64(float64(ladder[q].Bitrate) * chunkDur.Seconds() / 8 * 0.4)
		},
	}
}

func TestThroughputPicksFittingQuality(t *testing.T) {
	alg := &Throughput{}
	// 3 Mbps estimate: 0.4×ladder-rate must fit in 0.85×3Mbps=2.55Mbps →
	// highest ladder rate ≤ 6.375 Mbps → 1080p (6.4 is just over; 720p).
	q := alg.ChooseQuality(testCtx(3e6, 4*time.Second, 10*time.Second, -1))
	rate := float64(media.DefaultLadder[q].Bitrate) * 0.4
	if rate > 0.85*3e6 {
		t.Fatalf("chosen q%d rate %.0f exceeds budget", q, rate)
	}
	// And the next level up must not fit.
	if q+1 < len(media.DefaultLadder) {
		next := float64(media.DefaultLadder[q+1].Bitrate) * 0.4
		if next <= 0.85*3e6 {
			t.Fatalf("q%d chosen but q%d also fits", q, q+1)
		}
	}
}

func TestThroughputZeroBandwidthFloors(t *testing.T) {
	alg := &Throughput{}
	if q := alg.ChooseQuality(testCtx(0, 0, 10*time.Second, -1)); q != 0 {
		t.Fatalf("q = %d at zero bandwidth, want 0", q)
	}
}

func TestThroughputGradualUpswitch(t *testing.T) {
	alg := &Throughput{}
	// Huge bandwidth but last quality 0: may only step to 1.
	if q := alg.ChooseQuality(testCtx(1e9, 4*time.Second, 10*time.Second, 0)); q != 1 {
		t.Fatalf("q = %d, want gradual step to 1", q)
	}
	// Drops are immediate.
	if q := alg.ChooseQuality(testCtx(100e3, 4*time.Second, 10*time.Second, 5)); q != 0 {
		t.Fatalf("q = %d, want immediate drop to 0", q)
	}
}

func TestBufferMapsOccupancy(t *testing.T) {
	alg := &bufferBased{}
	maxQ := len(media.DefaultLadder) - 1
	// Below reservoir → 0.
	if q := alg.ChooseQuality(testCtx(1e9, time.Second, 10*time.Second, -1)); q != 0 {
		t.Fatalf("low buffer q = %d, want 0", q)
	}
	// Above cushion → max.
	if q := alg.ChooseQuality(testCtx(1e9, 9500*time.Millisecond, 10*time.Second, -1)); q != maxQ {
		t.Fatalf("full buffer q = %d, want %d", q, maxQ)
	}
	// Middle → middle.
	q := alg.ChooseQuality(testCtx(1e9, 5500*time.Millisecond, 10*time.Second, -1))
	if q <= 0 || q >= maxQ {
		t.Fatalf("mid buffer q = %d, want interior", q)
	}
}

func TestBufferHandicappedByShortWindow(t *testing.T) {
	// The §3.1.2 argument: with MaxBuffer = HMP window (2 s) and a
	// realistic sustainable buffer around half of it, BBA picks lower
	// quality than with a 30 s buffer at the same occupancy seconds.
	alg := &bufferBased{}
	short := alg.ChooseQuality(testCtx(1e9, time.Second, 2*time.Second, -1))
	long := alg.ChooseQuality(testCtx(1e9, 25*time.Second, 30*time.Second, -1))
	if short >= long {
		t.Fatalf("short-window q%d not below long-window q%d", short, long)
	}
}

func TestMPCAvoidsStalls(t *testing.T) {
	alg := &mpc{}
	// Bandwidth only supports q0-q1; a high quality would predict stalls.
	q := alg.ChooseQuality(testCtx(1e6, 2*time.Second, 10*time.Second, 3))
	rate := float64(media.DefaultLadder[q].Bitrate) * 0.4
	if rate > 2e6 {
		t.Fatalf("MPC chose q%d (%.1f Mbps) on a 1 Mbps link", q, rate/1e6)
	}
}

func TestMPCUsesBandwidthWhenSafe(t *testing.T) {
	alg := &mpc{}
	q := alg.ChooseQuality(testCtx(50e6, 8*time.Second, 10*time.Second, 4))
	if q < 3 {
		t.Fatalf("MPC chose q%d with 50 Mbps and a full buffer", q)
	}
}

func TestMPCZeroBandwidth(t *testing.T) {
	alg := &mpc{}
	if q := alg.ChooseQuality(testCtx(0, 5*time.Second, 10*time.Second, 2)); q != 0 {
		t.Fatalf("q = %d at zero bandwidth", q)
	}
}

func TestByName(t *testing.T) {
	for _, name := range []string{"throughput", "buffer", "mpc"} {
		alg, err := ByName(name)
		if err != nil || alg.Name() != name {
			t.Fatalf("ByName(%q) = %v, %v", name, alg, err)
		}
	}
	if _, err := ByName("nope"); err == nil {
		t.Fatal("unknown name accepted")
	}
}

func TestEmptyLadderSafe(t *testing.T) {
	ctx := Context{ChunkDuration: time.Second, SizeAt: func(int) int64 { return 0 }}
	for _, alg := range []Algorithm{&Throughput{}, &bufferBased{}, &mpc{}} {
		if q := alg.ChooseQuality(ctx); q != 0 {
			t.Fatalf("%s returned %d on empty ladder", alg.Name(), q)
		}
	}
}

func TestDecideUpgradeCore(t *testing.T) {
	base := UpgradeRequest{
		BytesNeeded:        250_000, // 2 Mbit
		TimeToDeadline:     2 * time.Second,
		DisplayProbability: 0.95,
		QualityGain:        2,
	}
	// 10 Mbps: fetch ≈ 0.2 s, safety 0.3 s < 2 s deadline, and the
	// deadline is within the 4×fetch=0.8s window? No — 2 s > 0.8 s, but
	// probability 0.95 ≥ 0.9 → upgrade now.
	if d := DecideUpgrade(base, 10e6); d != UpgradeNow {
		t.Fatalf("high-probability upgrade = %v, want now", d)
	}
	// Lower probability, far deadline → defer.
	req := base
	req.DisplayProbability = 0.7
	if d := DecideUpgrade(req, 10e6); d != UpgradeDefer {
		t.Fatalf("early upgrade = %v, want defer", d)
	}
	// Same but deadline near → now.
	req.TimeToDeadline = 500 * time.Millisecond
	if d := DecideUpgrade(req, 10e6); d != UpgradeNow {
		t.Fatalf("near-deadline upgrade = %v, want now", d)
	}
	// Probability below floor → skip.
	req.DisplayProbability = 0.3
	if d := DecideUpgrade(req, 10e6); d != UpgradeSkip {
		t.Fatalf("low-probability upgrade = %v, want skip", d)
	}
	// Deadline unreachable → skip.
	req = base
	req.TimeToDeadline = 50 * time.Millisecond
	if d := DecideUpgrade(req, 1e6); d != UpgradeSkip {
		t.Fatalf("unreachable deadline = %v, want skip", d)
	}
	// No gain → skip.
	req = base
	req.QualityGain = 0
	if d := DecideUpgrade(req, 10e6); d != UpgradeSkip {
		t.Fatalf("zero-gain upgrade = %v, want skip", d)
	}
	// Zero bandwidth → skip.
	if d := DecideUpgrade(base, 0); d != UpgradeSkip {
		t.Fatalf("zero-bandwidth upgrade = %v, want skip", d)
	}
}

func TestUpgradeDecisionString(t *testing.T) {
	if UpgradeNow.String() != "now" || UpgradeDefer.String() != "defer" || UpgradeSkip.String() != "skip" {
		t.Fatal("bad decision strings")
	}
}

func TestHybridChoice(t *testing.T) {
	// Costs: SVC fetch carries +10% overhead; SVC upgrade is the cheap
	// delta, AVC upgrade a full re-fetch.
	const fetchAVC, fetchSVC, upAVC, upSVC = 100, 110, 400, 360
	// Break-even: p* = (110-100)/(400-360) = 0.25.
	if enc := HybridChoice(0.1, fetchAVC, fetchSVC, upAVC, upSVC); enc != media.EncodingAVC {
		t.Fatalf("p=0.1 → %v, want AVC", enc)
	}
	if enc := HybridChoice(0.3, fetchAVC, fetchSVC, upAVC, upSVC); enc != media.EncodingSVC {
		t.Fatalf("p=0.3 → %v, want SVC", enc)
	}
	// Exactly at break-even, AVC (no strict win for SVC).
	if enc := HybridChoice(0.25, fetchAVC, fetchSVC, upAVC, upSVC); enc != media.EncodingAVC {
		t.Fatalf("p=0.25 → %v, want AVC at tie", enc)
	}
	// Out-of-range probabilities clamp.
	if enc := HybridChoice(-1, fetchAVC, fetchSVC, upAVC, upSVC); enc != media.EncodingAVC {
		t.Fatalf("p<0 → %v, want AVC", enc)
	}
	if enc := HybridChoice(2, fetchAVC, fetchSVC, upAVC, upSVC); enc != media.EncodingSVC {
		t.Fatalf("p>1 → %v, want SVC", enc)
	}
}

func TestTileQualityOrderingDeterministic(t *testing.T) {
	// Two plans built from the same input must be identical.
	in := testOOSInput(t, 30)
	a := PlanOOS(in, OOSPolicy{})
	b := PlanOOS(in, OOSPolicy{})
	if len(a) != len(b) {
		t.Fatal("plans differ in length")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("plans differ")
		}
	}
	_ = tiling.TileID(0)
}

func TestFixedClamps(t *testing.T) {
	ctx := testCtx(1e6, time.Second, 10*time.Second, -1)
	if q := (&Fixed{Q: 3}).ChooseQuality(ctx); q != 3 {
		t.Fatalf("Fixed(3) = %d", q)
	}
	if q := (&Fixed{Q: 99}).ChooseQuality(ctx); q != len(media.DefaultLadder)-1 {
		t.Fatalf("Fixed(99) = %d, want top", q)
	}
	if q := (&Fixed{Q: -2}).ChooseQuality(ctx); q != 0 {
		t.Fatalf("Fixed(-2) = %d, want 0", q)
	}
	if q := (&Fixed{Q: 1}).ChooseQuality(Context{}); q != 0 {
		t.Fatalf("Fixed on empty ladder = %d", q)
	}
}
