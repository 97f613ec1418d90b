package media

import (
	"math"
	"time"

	"sperke/internal/sphere"
	"sperke/internal/trace"
)

// VersionScheme models the "versioning" alternative to tiling (§2): the
// video is pre-rendered into many versions, each with a different
// high-quality region centered on one viewing direction; the player
// picks the version matching the user's head orientation. Oculus 360's
// offset-cube scheme maintains up to 88 versions of the same video [46].
type VersionScheme struct {
	// YawVersions and PitchVersions partition the orientation space.
	YawVersions, PitchVersions int
	// HQFraction is the fraction of the panorama kept at full quality in
	// each version; the rest is stored downgraded.
	HQFraction float64
	// LQFactor is the rate multiplier applied to the non-HQ region.
	LQFactor float64
}

// OculusScheme reproduces the Oculus 360 figure the paper quotes:
// 22 yaw × 4 pitch = 88 versions [46].
var OculusScheme = VersionScheme{
	YawVersions:   22,
	PitchVersions: 4,
	HQFraction:    0.25,
	LQFactor:      0.25,
}

// Versions returns the number of stored versions per quality level.
func (s VersionScheme) Versions() int { return s.YawVersions * s.PitchVersions }

// versionBytes returns the stored size of one version of one chunk
// interval at quality q: the HQ region at full rate plus the rest
// downgraded.
func (s VersionScheme) versionBytes(v *Video, q int, start time.Duration) int64 {
	pan := float64(v.PanoramaBytes(q, start))
	return int64(pan*s.HQFraction + pan*(1-s.HQFraction)*s.LQFactor)
}

// StorageBytes returns the full server-side footprint of the versioning
// approach for the video: every version of every chunk at every quality.
// Compare with Video.TotalBytes (tiling): this is the §2 trade-off —
// versioning shifts complexity from the client to server storage.
func (s VersionScheme) StorageBytes(v *Video) int64 {
	var sum int64
	for i := 0; i < v.NumChunks(); i++ {
		start := v.ChunkStart(i)
		for q := 0; q < len(v.Ladder); q++ {
			sum += s.versionBytes(v, q, start) * int64(s.Versions())
		}
	}
	return sum
}

// StorageRatio returns versioning storage divided by tiling storage for
// the same video — the overhead factor the paper's §2 argues against.
func (s VersionScheme) StorageRatio(v *Video) float64 {
	t := v.TotalBytes()
	if t == 0 {
		return math.Inf(1)
	}
	return float64(s.StorageBytes(v)) / float64(t)
}

// versionFor returns the (yaw, pitch) version cell a viewing direction
// selects: versioning players pick the stored version whose high-quality
// region faces the viewer (§2).
func (s VersionScheme) versionFor(o sphere.Orientation) (yawIdx, pitchIdx int) {
	o = o.Normalized()
	yawIdx = int((o.Yaw + 180) / 360 * float64(s.YawVersions))
	if yawIdx >= s.YawVersions {
		yawIdx = s.YawVersions - 1
	}
	pitchIdx = int((o.Pitch + 90) / 180 * float64(s.PitchVersions))
	if pitchIdx >= s.PitchVersions {
		pitchIdx = s.PitchVersions - 1
	}
	return yawIdx, pitchIdx
}

// SessionDelivery simulates the client-side cost of the versioning
// approach for one viewing session: each chunk interval downloads the
// version matching the viewer's direction, and any mid-interval head
// movement that crosses a version boundary forces a re-fetch of the
// whole chunk in the new version — versioning's hidden tax, since with
// 22 yaw cells a boundary sits every 16.4°.
func (s VersionScheme) SessionDelivery(v *Video, q int, head *trace.HeadTrace) (bytes int64, switches int) {
	const probes = 4
	for i := 0; i < v.NumChunks(); i++ {
		start := v.ChunkStart(i)
		cell := [2]int{-1, -1}
		for k := 0; k < probes; k++ {
			ts := start + time.Duration(k)*v.ChunkDuration/probes
			y, p := s.versionFor(head.At(ts))
			if y != cell[0] || p != cell[1] {
				if cell[0] >= 0 {
					switches++
				}
				cell = [2]int{y, p}
				bytes += s.versionBytes(v, q, start)
			}
		}
	}
	return bytes, switches
}
