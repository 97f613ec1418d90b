package experiments

import (
	"fmt"
	"math"
	"time"

	"sperke/internal/media"
	"sperke/internal/sphere"
	"sperke/internal/tiling"
	"sperke/internal/trace"
)

func init() {
	register("E4", versioningOverhead)
	register("E11", size360)
}

// expVideo builds the standard 60-second test title used by the storage
// and size experiments.
func expVideo(enc media.Encoding) *media.Video {
	return &media.Video{
		ID:             "experiment-title",
		Duration:       60 * time.Second,
		ChunkDuration:  2 * time.Second,
		Grid:           tiling.GridCellular,
		ProjectionName: "equirectangular",
		Ladder:         media.DefaultLadder,
		Encoding:       enc,
	}
}

// versioningOverhead quantifies the §2 versioning-vs-tiling trade-off:
// Oculus-style versioning needs up to 88 versions of the same video on
// the server, while tiling stores each quality once.
func versioningOverhead(seed int64) *Table {
	t := &Table{
		ID:      "E4",
		Title:   "§2 — server storage: Oculus-style versioning (88 versions) vs tiling",
		Columns: []string{"approach", "versions/qualities", "storage (GB)", "ratio vs tiled AVC"},
		Notes: []string{
			"Oculus 360 maintains up to 88 versions of the same video [46]",
			"SVC tiling stores only layer deltas, beating even AVC tiling",
		},
	}
	avc := expVideo(media.EncodingAVC)
	svc := expVideo(media.EncodingSVC)
	tiledAVC := avc.TotalBytes()
	tiledSVC := svc.TotalBytes()
	versioned := media.OculusScheme.StorageBytes(avc)
	gb := func(b int64) string { return fmt.Sprintf("%.2f", float64(b)/1e9) }
	t.addRow("tiling (AVC)", fmt.Sprintf("%d qualities × %d tiles", avc.Qualities(), avc.Grid.Tiles()),
		gb(tiledAVC), 1.0)
	t.addRow("tiling (SVC)", fmt.Sprintf("%d layers × %d tiles", svc.Qualities(), svc.Grid.Tiles()),
		gb(tiledSVC), float64(tiledSVC)/float64(tiledAVC))
	t.addRow("versioning (Oculus-style)", fmt.Sprintf("%d versions × %d qualities",
		media.OculusScheme.Versions(), avc.Qualities()),
		gb(versioned), media.OculusScheme.StorageRatio(avc))

	// Client-side dynamics: versioning re-fetches the whole chunk every
	// time the head crosses one of the 22 yaw cells (every ≈16.4°).
	head := trace.Draw(seed, seed+5, trace.UserProfile{SpeedScale: 1}, avc.Duration)
	delivered, switches := media.OculusScheme.SessionDelivery(avc, 4, head)
	t.addRow("versioning delivery (60s session)",
		fmt.Sprintf("%d version switches", switches),
		gb(delivered), "—")
	t.Notes = append(t.Notes,
		"every version switch re-downloads the chunk in the new version — the client-side tax of §2's versioning")
	return t
}

// size360 reproduces the §1 claim that 360° videos are ≈5× larger than
// conventional videos at the same perceived quality, and the §3.4.1
// live variant (4–5×).
func size360(seed int64) *Table {
	t := &Table{
		ID:      "E11",
		Title:   "§1/§3.4.1 — 360° vs conventional video size at equal perceived quality",
		Columns: []string{"quantity", "value"},
		Notes: []string{
			"paper: ≈5× for on-demand (§1); 4–5× for live (§3.4.1)",
			"the ratio is the sphere area over the FoV solid angle, corrected for projection oversampling",
		},
	}
	fov := sphere.DefaultFoV
	frac := fov.SphereFraction()
	t.addRow("FoV share of sphere", fmt.Sprintf("%.1f%%", frac*100))
	t.addRow("geometric ratio (sphere/FoV)", 1/frac)
	// Stored pixels inflate by the projection's oversampling; a
	// conventional video stores the FoV at 1:1. An efficiency is the mean,
	// along one axis of the frame, of the angle a sample spans relative to
	// the densest one: cos θ down an equirectangular meridian (2/π), and
	// 1/(1+a²) across a face of Facebook's cube map (§2) at in-face
	// coordinate a ∈ [-1,1], where a sample sits at angle atan a (π/4).
	const cubeMapEfficiency = math.Pi / 4
	t.addRow("stored-pixel ratio (equirectangular)", 1/frac/sphere.Equirectangular{}.PixelEfficiency())
	t.addRow("stored-pixel ratio (cubemap)", 1/frac/cubeMapEfficiency)
	// Byte-level check with the rate model: panorama bytes per chunk vs a
	// conventional video carrying only FoV-sized content at the same
	// pixel density.
	v := expVideo(media.EncodingAVC)
	q := 4 // 1080p-equivalent
	pan := v.PanoramaBytes(q, 0)
	conventional := int64(float64(pan) * frac)
	t.addRow("rate-model ratio (panorama/FoV bytes)", float64(pan)/float64(conventional))
	return t
}
