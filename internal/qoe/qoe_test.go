package qoe

import (
	"math"
	"testing"
	"time"
)

func TestZeroMetrics(t *testing.T) {
	var m Metrics
	if m.MeanQuality() != 0 || m.StallRatio() != 0 || m.WasteRatio() != 0 {
		t.Fatal("zero metrics not zero")
	}
	if m.Score(5) != 0 {
		t.Fatal("zero score not zero")
	}
}

func TestPlayAccumulates(t *testing.T) {
	var c Collector
	c.Play(2*time.Second, 4)
	c.Play(2*time.Second, 2)
	m := c.Metrics()
	if m.PlayTime != 4*time.Second {
		t.Fatalf("PlayTime = %v", m.PlayTime)
	}
	if q := m.MeanQuality(); q != 3 {
		t.Fatalf("MeanQuality = %v, want 3", q)
	}
}

func TestSwitchCounting(t *testing.T) {
	var c Collector
	c.Play(time.Second, 3)
	c.Play(time.Second, 3.2) // < 1 level: no switch
	c.Play(time.Second, 4.5) // ≥ 1 level: switch
	c.Play(time.Second, 1)   // switch
	if got := c.Metrics().Switches; got != 2 {
		t.Fatalf("Switches = %d, want 2", got)
	}
}

func TestStallRatioAndEvents(t *testing.T) {
	var c Collector
	c.Play(8*time.Second, 3)
	c.Stall(2 * time.Second)
	c.Stall(0) // ignored
	m := c.Metrics()
	if m.Stalls != 1 {
		t.Fatalf("Stalls = %d, want 1", m.Stalls)
	}
	if r := m.StallRatio(); r != 0.2 {
		t.Fatalf("StallRatio = %v, want 0.2", r)
	}
}

func TestScoreOrdering(t *testing.T) {
	// More stalls → lower score; higher quality → higher score.
	var good, stally, lowq Collector
	good.Play(time.Minute, 4)
	stally.Play(time.Minute, 4)
	stally.Stall(10 * time.Second)
	lowq.Play(time.Minute, 1)
	g, s, l := good.Metrics().Score(5), stally.Metrics().Score(5), lowq.Metrics().Score(5)
	if !(g > s && g > l) {
		t.Fatalf("score ordering wrong: good=%v stally=%v lowq=%v", g, s, l)
	}
	if g > 100 || g < 0 {
		t.Fatalf("score %v out of [0,100]", g)
	}
}

func TestBlankPenalty(t *testing.T) {
	var clean, blank Collector
	clean.Play(time.Minute, 3)
	blank.Play(time.Minute, 3)
	blank.Blank(5 * time.Second)
	if clean.Metrics().Score(5) <= blank.Metrics().Score(5) {
		t.Fatal("blank time did not lower score")
	}
}

func TestWasteRatio(t *testing.T) {
	var c Collector
	c.Fetched(1000)
	c.Wasted(250)
	if r := c.Metrics().WasteRatio(); r != 0.25 {
		t.Fatalf("WasteRatio = %v, want 0.25", r)
	}
}

func TestScoreNeverNegative(t *testing.T) {
	var c Collector
	c.Play(time.Second, 0)
	c.Stall(time.Hour)
	if s := c.Metrics().Score(5); s != 0 {
		t.Fatalf("score = %v, want clamped 0", s)
	}
}

func TestStringNonEmpty(t *testing.T) {
	var c Collector
	c.Play(time.Second, 2)
	if c.Metrics().String() == "" {
		t.Fatal("empty String")
	}
}

func TestNegativeDurationsIgnored(t *testing.T) {
	var c Collector
	c.Play(-time.Second, 5)
	c.Blank(-time.Second)
	m := c.Metrics()
	if m.PlayTime != 0 || m.BlankTime != 0 {
		t.Fatal("negative durations recorded")
	}
}

func TestPlayTilesVariance(t *testing.T) {
	var c Collector
	// Uniform FoV: zero variance.
	c.PlayTiles(2*time.Second, []int{3, 3, 3, 3})
	if v := c.Metrics().MeanFoVVariance(); v != 0 {
		t.Fatalf("uniform FoV variance %v", v)
	}
	// Mixed FoV (an OOS tile drifted in): variance appears.
	c.PlayTiles(2*time.Second, []int{4, 4, 1, 1})
	m := c.Metrics()
	if m.MeanFoVVariance() <= 0 {
		t.Fatal("mixed FoV produced no variance")
	}
	// Mean quality is the tile mean over time: (3×2 + 2.5×2)/4 = 2.75.
	if q := m.MeanQuality(); q < 2.74 || q > 2.76 {
		t.Fatalf("mean quality %v, want 2.75", q)
	}
	// Degenerate calls are ignored.
	c.PlayTiles(time.Second, nil)
	c.PlayTiles(-time.Second, []int{1})
	if c.Metrics().PlayTime != 4*time.Second {
		t.Fatal("degenerate PlayTiles recorded")
	}
}

// TestZeroPlayTimeMeans is the regression guard for the divide-by-zero
// family: a session that stalls out before rendering a single frame has
// PlayTime == 0 but can still carry accumulated sums (e.g. variance or
// quality recorded through a pathological collector path). Every
// play-time-weighted mean must return 0, never NaN or ±Inf.
func TestZeroPlayTimeMeans(t *testing.T) {
	m := Metrics{
		QualitySum:     12.5,
		FoVVarianceSum: 3.25,
		BlankTime:      time.Second,
		Switches:       3,
	}
	if q := m.MeanQuality(); q != 0 {
		t.Fatalf("MeanQuality with zero play time = %v, want 0", q)
	}
	if v := m.MeanFoVVariance(); v != 0 {
		t.Fatalf("MeanFoVVariance with zero play time = %v, want 0", v)
	}
	// Negative play time (corrupt input) takes the same guard.
	m.PlayTime = -time.Second
	if m.MeanQuality() != 0 || m.MeanFoVVariance() != 0 {
		t.Fatal("negative play time leaked through a mean")
	}
	// The composite score must also stay finite and non-negative.
	m.PlayTime = 0
	if s := m.Score(5); math.IsNaN(s) || math.IsInf(s, 0) || s < 0 {
		t.Fatalf("Score with zero play time = %v", s)
	}
}
