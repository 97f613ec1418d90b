package live

import (
	"math"
	"time"

	"sperke/internal/hmp"
	"sperke/internal/sphere"
)

// UploadMode selects how the broadcaster reacts to a degraded uplink
// (§3.4.2).
type UploadMode int

// Upload adaptation modes.
const (
	// UploadFixed is today's behaviour: a fixed rate, frames dropped when
	// the uplink cannot keep up (§3.4.1 finding).
	UploadFixed UploadMode = iota
	// UploadQualityReduce lowers the encoding quality of the full
	// panorama — the conventional fallback.
	UploadQualityReduce
	// UploadSpatialFallback keeps the quality but narrows the uploaded
	// horizon (e.g. 360°→180°) around the horizon of interest — the
	// paper's proposal: "for many live events the horizon of interest is
	// oftentimes narrower than full 360°".
	UploadSpatialFallback
)

func (m UploadMode) String() string {
	switch m {
	case UploadQualityReduce:
		return "quality-reduce"
	case UploadSpatialFallback:
		return "spatial-fallback"
	default:
		return "fixed"
	}
}

// HorizonPlan is the spatial-fallback decision: which yaw span to
// upload, centered where.
type HorizonPlan struct {
	// Center is the middle of the uploaded horizon.
	Center sphere.Orientation
	// SpanDeg is the uploaded yaw width in degrees (360 = everything).
	SpanDeg float64
}

// fraction returns the uploaded share of the panorama.
func (h HorizonPlan) fraction() float64 { return h.SpanDeg / 360 }

// covers reports whether a viewer looking at view sees only uploaded
// content (their FoV falls inside the horizon).
func (h HorizonPlan) covers(view sphere.Orientation, fov sphere.FoV) bool {
	half := h.SpanDeg/2 - fov.Width/2
	if half < 0 {
		return false
	}
	return math.Abs(sphere.NormalizeYaw(view.Yaw-h.Center.Yaw)) <= half
}

// PlanHorizon solves the §3.4.2 open problem pragmatically by combining
// the paper's three suggested signals: a manual hint from the
// broadcaster (the stage direction), the crowd's viewing heatmap (where
// current viewers actually look), and a floor on the span (the horizon
// should be wider than the subject, e.g. the concert stage).
//
// uplinkFraction is the ratio of available uplink to the full-panorama
// rate; a value ≥ 1 means no fallback is needed.
func PlanHorizon(manualHint *sphere.Orientation, heat *hmp.Heatmap, at time.Duration,
	uplinkFraction, minSpanDeg float64) HorizonPlan {
	plan := HorizonPlan{SpanDeg: 360}
	if uplinkFraction >= 1 {
		if manualHint != nil {
			plan.Center = *manualHint
		}
		return plan
	}
	if uplinkFraction < 0 {
		uplinkFraction = 0
	}
	span := 360 * uplinkFraction
	if span < minSpanDeg {
		span = minSpanDeg
	}
	if span > 360 {
		span = 360
	}
	plan.SpanDeg = span
	switch {
	case manualHint != nil:
		plan.Center = *manualHint
	case heat != nil && heat.Intervals() > 0:
		plan.Center = heat.CrowdCenter(at)
	}
	return plan
}

// FallbackOutcome compares what a viewer population experiences under
// one upload mode at one uplink fraction.
type FallbackOutcome struct {
	Mode UploadMode
	// MeanFoVQuality is the average quality fraction (1 = source
	// quality) rendered inside viewers' FoV.
	MeanFoVQuality float64
	// OutsideHorizonFrac is the fraction of view samples landing outside
	// the uploaded horizon (blank/frozen content under spatial
	// fallback).
	OutsideHorizonFrac float64
	// SkippedFrac is the fraction of frames dropped at the uplink
	// (fixed-rate mode under constraint).
	SkippedFrac float64
}

// EvaluateFallback scores an upload mode for a set of viewer
// orientations (sampled from live viewers) at one instant.
// uplinkFraction is available uplink over the source rate.
func EvaluateFallback(mode UploadMode, plan HorizonPlan, uplinkFraction float64,
	views []sphere.Orientation, fov sphere.FoV) FallbackOutcome {
	out := FallbackOutcome{Mode: mode}
	if uplinkFraction > 1 {
		uplinkFraction = 1
	}
	if uplinkFraction < 0 {
		uplinkFraction = 0
	}
	switch mode {
	case UploadFixed:
		// Fixed rate on a constrained uplink drops frames; quality of
		// delivered frames is full but a fraction of time is frozen.
		out.SkippedFrac = 1 - uplinkFraction
		out.MeanFoVQuality = uplinkFraction // effective: full quality × delivered share
	case UploadQualityReduce:
		// The whole panorama is re-encoded to fit: everyone sees reduced
		// quality. Perceived quality falls slightly slower than bitrate
		// (codec efficiency): q ≈ rate^0.7.
		out.MeanFoVQuality = math.Pow(uplinkFraction, 0.7)
	case UploadSpatialFallback:
		// Inside the horizon viewers see full quality; outside they see
		// nothing new.
		if len(views) == 0 {
			out.MeanFoVQuality = 1
			return out
		}
		covered := 0
		for _, v := range views {
			if plan.covers(v, fov) {
				covered++
			}
		}
		frac := float64(covered) / float64(len(views))
		out.MeanFoVQuality = frac
		out.OutsideHorizonFrac = 1 - frac
	}
	return out
}
