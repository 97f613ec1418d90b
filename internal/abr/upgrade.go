package abr

import (
	"time"

	"sperke/internal/media"
)

// UpgradeRequest describes an already-fetched chunk that HMP now
// believes will be displayed at a quality below the FoV target
// (§3.1.1's out-of-sight chunk that drifted into sight).
type UpgradeRequest struct {
	// BytesNeeded is what the upgrade fetches: the delta layers (SVC)
	// or the whole chunk again (AVC), as media.Video.SpanBytes prices
	// them. It is the upgrade's only cost.
	BytesNeeded int64
	// TimeToDeadline is how long until the chunk must be decoded.
	TimeToDeadline time.Duration
	// DisplayProbability is HMP's current belief the chunk will actually
	// be in view at its play time.
	DisplayProbability float64
	// QualityGain is the number of ladder levels the upgrade adds.
	QualityGain int
}

// The two §3.1.2 decisions, whether to upgrade at all and when, turn
// on three constants.
const (
	// upgradeMinProbability is the display-probability floor below which
	// upgrading is judged a waste.
	upgradeMinProbability = 0.5
	// upgradeSafety inflates the estimated fetch time when checking the
	// deadline.
	upgradeSafety = 1.5
	// upgradeEarlyWindow: upgrading earlier than this multiple of the
	// fetch time before the deadline is deferred — the HMP may still
	// change (the "upgrading too early wastes bandwidth" arm).
	upgradeEarlyWindow = 4
)

// UpgradeDecision is the scheduler's verdict on one upgrade request.
type UpgradeDecision int

// Possible verdicts.
const (
	// UpgradeNow: fetch the delta immediately.
	UpgradeNow UpgradeDecision = iota
	// UpgradeDefer: worth upgrading but too early — re-ask closer to the
	// deadline.
	UpgradeDefer
	// UpgradeSkip: not worth the bandwidth (low display probability or
	// deadline unreachable).
	UpgradeSkip
)

func (d UpgradeDecision) String() string {
	switch d {
	case UpgradeNow:
		return "now"
	case UpgradeDefer:
		return "defer"
	default:
		return "skip"
	}
}

// DecideUpgrade implements the §3.1.2 part-three logic. bandwidth is
// the current estimate in bits/s.
func DecideUpgrade(req UpgradeRequest, bandwidth float64) UpgradeDecision {
	if req.QualityGain <= 0 || req.BytesNeeded <= 0 {
		return UpgradeSkip
	}
	if req.DisplayProbability < upgradeMinProbability {
		return UpgradeSkip
	}
	if bandwidth <= 0 {
		return UpgradeSkip
	}
	fetch := time.Duration(float64(req.BytesNeeded) * 8 / bandwidth * float64(time.Second))
	needed := time.Duration(float64(fetch) * upgradeSafety)
	if needed > req.TimeToDeadline {
		// Upgrading too late: the delta cannot arrive before playback.
		return UpgradeSkip
	}
	// Upgrading too early wastes bandwidth if HMP changes again — defer
	// until the deadline approaches, unless the prediction is already
	// near-certain.
	deferWindow := time.Duration(float64(fetch) * upgradeEarlyWindow)
	if req.TimeToDeadline > deferWindow && req.DisplayProbability < 0.9 {
		return UpgradeDefer
	}
	return UpgradeNow
}

// HybridChoice implements the §3.1.2 closing idea: the server keeps
// both SVC and AVC copies of each chunk, and the client fetches the
// encoding with the lower expected cost — AVC dodges the SVC overhead
// when an upgrade is unlikely; SVC wins once the upgrade probability
// makes the cheap delta pay for the overhead.
//
//	E[AVC] = fetchAVC + p·upgradeAVC   (full re-fetch on upgrade)
//	E[SVC] = fetchSVC + p·upgradeSVC   (delta layers on upgrade)
func HybridChoice(upgradeProbability float64, fetchAVC, fetchSVC, upgradeAVC, upgradeSVC int64) media.Encoding {
	p := upgradeProbability
	if p < 0 {
		p = 0
	}
	if p > 1 {
		p = 1
	}
	eAVC := float64(fetchAVC) + p*float64(upgradeAVC)
	eSVC := float64(fetchSVC) + p*float64(upgradeSVC)
	if eSVC < eAVC {
		return media.EncodingSVC
	}
	return media.EncodingAVC
}
