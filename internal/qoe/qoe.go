// Package qoe accounts the quality-of-experience metrics 360° rate
// adaptation optimizes (§3.1.2): stalls (rebuffering), the quality
// level rendered inside the FoV, quality switches, and blank time (a
// visible tile that was never fetched). A composite score in the spirit of the predictive QoE
// model of [14] combines them.
package qoe

import (
	"fmt"
	"math"
	"time"
)

// Metrics is the accumulated QoE of one playback session.
type Metrics struct {
	// PlayTime is time spent rendering frames.
	PlayTime time.Duration
	// StallTime is time spent rebuffering (non-live).
	StallTime time.Duration
	// Stalls counts distinct rebuffering events.
	Stalls int
	// BlankTime is play time during which at least one FoV tile had no
	// data at all (rendered black).
	BlankTime time.Duration
	// QualitySum accumulates FoV quality level × seconds; divide by
	// PlayTime for the mean.
	QualitySum float64
	// Switches counts FoV quality level changes ≥ 1 level.
	Switches int
	// BytesFetched counts everything downloaded, including waste.
	BytesFetched int64
	// BytesWasted counts downloaded bytes never rendered (fetched tiles
	// that stayed out of view, replaced chunks, dropped layers).
	BytesWasted int64
	// FoVVarianceSum accumulates the within-FoV quality variance ×
	// seconds: §3.1.2 constrains super chunks to one quality because
	// "different subareas in a FoV will have different qualities, thus
	// worsening the QoE" — this measures how much of that leaked in
	// (via OOS tiles drifting into view).
	FoVVarianceSum float64
}

// MeanFoVVariance returns the play-time-weighted mean within-FoV
// quality variance (0 = every visible tile at one quality).
func (m Metrics) MeanFoVVariance() float64 {
	if m.PlayTime <= 0 {
		return 0
	}
	return m.FoVVarianceSum / m.PlayTime.Seconds()
}

// MeanQuality returns the play-time-weighted mean FoV quality level.
func (m Metrics) MeanQuality() float64 {
	if m.PlayTime <= 0 {
		return 0
	}
	return m.QualitySum / m.PlayTime.Seconds()
}

// StallRatio returns stall time over total session time.
func (m Metrics) StallRatio() float64 {
	total := m.PlayTime + m.StallTime
	if total <= 0 {
		return 0
	}
	return float64(m.StallTime) / float64(total)
}

// WasteRatio returns wasted bytes over fetched bytes.
func (m Metrics) WasteRatio() float64 {
	if m.BytesFetched <= 0 {
		return 0
	}
	return float64(m.BytesWasted) / float64(m.BytesFetched)
}

// Score condenses the session into a single comparable number per the
// structure of predictive QoE models [14]: quality helps; stalls, blank
// frames and switches hurt. maxQuality normalizes the quality
// term; the result is roughly in [0, 100].
func (m Metrics) Score(maxQuality int) float64 {
	if maxQuality <= 0 {
		maxQuality = 1
	}
	q := m.MeanQuality() / float64(maxQuality) * 100
	stall := m.StallRatio() * 200
	blank := 0.0
	if m.PlayTime > 0 {
		blank = float64(m.BlankTime) / float64(m.PlayTime) * 150
	}
	switches := 0.0
	if m.PlayTime > 0 {
		perMin := float64(m.Switches) / m.PlayTime.Minutes()
		switches = math.Min(perMin, 30) * 0.5
	}
	s := q - stall - blank - switches
	if s < 0 {
		s = 0
	}
	return s
}

func (m Metrics) String() string {
	return fmt.Sprintf("play=%v stalls=%d(%v) q̄=%.2f switches=%d waste=%.0f%%",
		m.PlayTime.Round(time.Millisecond), m.Stalls, m.StallTime.Round(time.Millisecond),
		m.MeanQuality(), m.Switches, m.WasteRatio()*100)
}

// Collector accumulates Metrics during a session. The zero value is
// ready to use.
type Collector struct {
	m        Metrics
	lastQ    float64
	haveLast bool
}

// PlayTiles records d of rendered content from the per-tile quality
// levels visible in the FoV, capturing both the mean and the within-FoV
// variance. Missing tiles are not included (account them via Blank).
func (c *Collector) PlayTiles(d time.Duration, qualities []int) {
	if d <= 0 || len(qualities) == 0 {
		return
	}
	var sum float64
	for _, q := range qualities {
		sum += float64(q)
	}
	mean := sum / float64(len(qualities))
	var varSum float64
	for _, q := range qualities {
		diff := float64(q) - mean
		varSum += diff * diff
	}
	c.m.FoVVarianceSum += varSum / float64(len(qualities)) * d.Seconds()
	c.Play(d, mean)
}

// Play records d of rendered content at the given mean FoV quality
// level.
func (c *Collector) Play(d time.Duration, fovQuality float64) {
	if d <= 0 {
		return
	}
	c.m.PlayTime += d
	c.m.QualitySum += fovQuality * d.Seconds()
	if c.haveLast && math.Abs(fovQuality-c.lastQ) >= 1 {
		c.m.Switches++
	}
	c.lastQ = fovQuality
	c.haveLast = true
}

// Stall records one rebuffering event of duration d.
func (c *Collector) Stall(d time.Duration) {
	if d <= 0 {
		return
	}
	c.m.Stalls++
	c.m.StallTime += d
}

// Blank records d of play time with a missing FoV tile.
func (c *Collector) Blank(d time.Duration) {
	if d > 0 {
		c.m.BlankTime += d
	}
}

// Fetched records downloaded bytes; wasted marks them as never
// rendered.
func (c *Collector) Fetched(bytes int64) { c.m.BytesFetched += bytes }

// Wasted records bytes that were fetched but never rendered.
func (c *Collector) Wasted(bytes int64) { c.m.BytesWasted += bytes }

// Metrics returns a snapshot of the accumulated metrics.
func (c *Collector) Metrics() Metrics { return c.m }
