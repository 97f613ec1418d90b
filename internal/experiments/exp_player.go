package experiments

import (
	"fmt"
	"time"

	"sperke/internal/player"
	"sperke/internal/tiling"
	"sperke/internal/trace"
)

func init() {
	register("E1", figure5)
	register("E13", frameCacheDelta)
	register("A3", ablationDecoderPool)
}

// figure5 reproduces Fig. 5: frames per second of the Sperke player on
// an SGS7 with a 2K video and 2×4 tiles under the three rendering
// configurations.
func figure5(seed int64) *Table {
	t := &Table{
		ID:      "E1",
		Title:   "Figure 5 — player FPS on SGS7 (2K video, 2×4 tiles, 8 decoders)",
		Columns: []string{"configuration", "fps", "paper"},
		Notes: []string{
			"paper §3.5: 11 → 53 → 120 FPS",
		},
	}
	head := fig5HeadTrace(seed)
	paper := []string{"11", "53", "120"}
	labels := []string{
		"1. render all tiles w/o optimization",
		"2. render all tiles with optimization",
		"3. render only FoV tiles with optimization",
	}
	for cfgNum := 1; cfgNum <= 3; cfgNum++ {
		cfg, err := player.Figure5Config(player.SGS7, cfgNum)
		if err != nil {
			panic(err)
		}
		res, err := player.SimulateFPS(cfg, head, 10*time.Second)
		if err != nil {
			panic(err)
		}
		t.addRow(labels[cfgNum-1], fmt.Sprintf("%.0f", res.FPS), paper[cfgNum-1])
	}
	// The §3.5 comparison point: H.265's built-in tiles mechanism, which
	// parallelizes within one decoder session but cannot skip non-FoV
	// decode work.
	cfg, err := player.Figure5Config(player.SGS7, 3)
	if err != nil {
		panic(err)
	}
	hevc, err := player.SimulateHEVCTilesFPS(cfg, 10*time.Second)
	if err != nil {
		panic(err)
	}
	t.addRow("(H.265 built-in tiles, for comparison)", fmt.Sprintf("%.0f", hevc.FPS), "outperformed")
	return t
}

func fig5HeadTrace(seed int64) *trace.HeadTrace {
	return trace.Draw(seed, seed+1, trace.UserProfile{SpeedScale: 1}, 12*time.Second)
}

// frameCacheDelta reproduces the §3.5 decoded-frame-cache claim: after
// an inaccurate HMP, the FoV shifts by decoding only the delta tiles
// instead of the whole view.
func frameCacheDelta(seed int64) *Table {
	t := &Table{
		ID:      "E13",
		Title:   "§3.5 — FoV shift cost with vs without the decoded-frame cache",
		Columns: []string{"scenario", "delta tiles", "re-decoded", "render hiccup (ms)"},
		Notes: []string{
			"with the cache, OOS tiles decoded ahead of time absorb the shift (§3.5)",
		},
	}
	cfg, err := player.Figure5Config(player.SGS7, 2)
	if err != nil {
		panic(err)
	}
	// Old FoV: tiles of the left half; new FoV after an HMP miss: shifted
	// one column right; the ring tile was prefetched as OOS.
	g := cfg.Grid
	old := []tiling.TileID{g.Tile(0, 0), g.Tile(0, 1), g.Tile(1, 0), g.Tile(1, 1)}
	new := []tiling.TileID{g.Tile(0, 1), g.Tile(0, 2), g.Tile(1, 1), g.Tile(1, 2)}

	// With cache: the OOS prefetch decoded the adjacent column already.
	warm := player.NewFrameCache(8)
	warm.Put(player.FrameCacheKey{Tile: g.Tile(0, 2), Interval: 0, Quality: 3})
	warm.Put(player.FrameCacheKey{Tile: g.Tile(1, 2), Interval: 0, Quality: 3})
	res := warm.Shift(cfg, old, new, 0, 3)
	t.addRow("with frame cache (OOS pre-decoded)", res.DeltaTiles, res.Redecoded,
		fmt.Sprintf("%.1f", float64(res.Stall.Microseconds())/1000))

	// Without cache: every delta tile re-decodes synchronously.
	cold := player.NewFrameCache(8)
	res = cold.Shift(cfg, old, new, 0, 3)
	t.addRow("without frame cache", res.DeltaTiles, res.Redecoded,
		fmt.Sprintf("%.1f", float64(res.Stall.Microseconds())/1000))

	// Worst case: the whole FoV re-decodes (cache disabled entirely, as
	// in configuration 1).
	res = cold.Shift(cfg, nil, new, 1, 3)
	t.addRow("re-decode entire FoV", res.DeltaTiles, res.Redecoded,
		fmt.Sprintf("%.1f", float64(res.Stall.Microseconds())/1000))
	return t
}

// ablationDecoderPool sweeps the decoder-pool size for configuration 2
// on both device profiles (§3.5: SGS5 has 8 decoders, SGS7 has 16).
func ablationDecoderPool(seed int64) *Table {
	t := &Table{
		ID:      "A3",
		Title:   "Ablation — parallel decoder count vs FPS (config 2)",
		Columns: []string{"device", "decoders", "fps"},
		Notes: []string{
			"FPS saturates once decode stops being the bottleneck; the render stage then dominates",
		},
	}
	head := fig5HeadTrace(seed)
	for _, dev := range []player.DeviceProfile{player.SGS5, player.SGS7} {
		for _, n := range []int{1, 2, 4, 8, 16} {
			if n > dev.HWDecoders {
				continue
			}
			cfg, err := player.Figure5Config(dev, 2)
			if err != nil {
				panic(err)
			}
			cfg.Device = dev
			cfg.Decoders = n
			res, err := player.SimulateFPS(cfg, head, 5*time.Second)
			if err != nil {
				panic(err)
			}
			t.addRow(dev.Name, n, fmt.Sprintf("%.0f", res.FPS))
		}
	}
	return t
}
