package player

import (
	"testing"
	"time"

	"sperke/internal/sphere"
	"sperke/internal/tiling"
)

func fig5(t *testing.T, config int) PipelineConfig {
	t.Helper()
	cfg, err := Figure5Config(SGS7, config)
	if err != nil {
		t.Fatal(err)
	}
	return cfg
}

func simFPS(t *testing.T, cfg PipelineConfig) float64 {
	t.Helper()
	res, err := SimulateFPS(cfg, nil, 10*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	return res.FPS
}

func TestFigure5Shape(t *testing.T) {
	// The paper's headline numbers: 11 → 53 → 120 FPS (§3.5). The model
	// must land near them and strictly in that order.
	f1 := simFPS(t, fig5(t, 1))
	f2 := simFPS(t, fig5(t, 2))
	f3 := simFPS(t, fig5(t, 3))
	if !(f1 < f2 && f2 < f3) {
		t.Fatalf("FPS ordering broken: %.1f, %.1f, %.1f", f1, f2, f3)
	}
	if f1 < 8 || f1 > 15 {
		t.Fatalf("config 1 FPS %.1f, want ≈11", f1)
	}
	if f2 < 45 || f2 > 62 {
		t.Fatalf("config 2 FPS %.1f, want ≈53", f2)
	}
	if f3 < 100 || f3 > 125 {
		t.Fatalf("config 3 FPS %.1f, want ≈120", f3)
	}
}

func TestFigure5InvalidConfig(t *testing.T) {
	if _, err := Figure5Config(SGS7, 0); err == nil {
		t.Fatal("config 0 accepted")
	}
	if _, err := Figure5Config(SGS7, 4); err == nil {
		t.Fatal("config 4 accepted")
	}
}

func TestDisplayCapsFPS(t *testing.T) {
	cfg := fig5(t, 3)
	res, err := SimulateFPS(cfg, nil, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if res.FPS > cfg.Device.MaxDisplayFPS+0.5 {
		t.Fatalf("FPS %.1f exceeds display cap %.0f", res.FPS, cfg.Device.MaxDisplayFPS)
	}
}

func TestMoreDecodersNeverSlower(t *testing.T) {
	// Ablation A3 shape: FPS is nondecreasing in pool size and saturates
	// once decode stops being the bottleneck.
	prev := 0.0
	for _, n := range []int{1, 2, 4, 8, 16} {
		cfg := fig5(t, 2)
		cfg.Decoders = n
		fps := simFPS(t, cfg)
		if fps+0.01 < prev {
			t.Fatalf("FPS dropped from %.1f to %.1f at %d decoders", prev, fps, n)
		}
		prev = fps
	}
	// 1 decoder with cache must still beat config 1 (overhead hiding).
	one := fig5(t, 2)
	one.Decoders = 1
	if simFPS(t, one) <= simFPS(t, fig5(t, 1)) {
		t.Fatal("async pipeline with 1 decoder not faster than sync")
	}
}

func TestSGS5SlowerThanSGS7(t *testing.T) {
	cfg7 := fig5(t, 2)
	cfg5, err := Figure5Config(SGS5, 2)
	if err != nil {
		t.Fatal(err)
	}
	if simFPS(t, cfg5) >= simFPS(t, cfg7) {
		t.Fatal("SGS5 not slower than SGS7")
	}
}

func TestValidateRejectsBadConfigs(t *testing.T) {
	cfg := fig5(t, 2)
	cfg.Decoders = 100 // more than the device has
	if cfg.validate() == nil {
		t.Fatal("oversubscribed decoders accepted")
	}
	cfg = fig5(t, 2)
	cfg.Grid = tiling.Grid{}
	if cfg.validate() == nil {
		t.Fatal("invalid grid accepted")
	}
	if _, err := SimulateFPS(fig5(t, 1), nil, 0); err == nil {
		t.Fatal("zero duration accepted")
	}
}

func TestFrameTimeFoVOnlyDependsOnView(t *testing.T) {
	cfg := fig5(t, 3)
	// Looking at a pole covers more tiles than looking at the equator on
	// an equirect grid; decode stage may grow, but render stays
	// FoV-sized. Just assert both compute and are positive.
	vp := cfg.viewport()
	eq := cfg.frameTime(&vp, sphere.Orientation{})
	pole := cfg.frameTime(&vp, sphere.Orientation{Pitch: 90})
	if eq <= 0 || pole <= 0 {
		t.Fatal("non-positive frame times")
	}
}

func TestTilePixels2K(t *testing.T) {
	cfg := fig5(t, 1)
	if cfg.tilePixels() != 2560*1440/8 {
		t.Fatalf("TilePixels = %d", cfg.tilePixels())
	}
}

func TestHEVCTilesLosesToSperkePipeline(t *testing.T) {
	// §3.5: "our approach also significantly outperforms the built-in
	// 'tiles' mechanism introduced in the latest H.265 codec".
	cfg := fig5(t, 3) // Sperke FoV-only config
	sperke := simFPS(t, cfg)
	hevc, err := SimulateHEVCTilesFPS(cfg, 10*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if hevc.FPS >= sperke {
		t.Fatalf("HEVC tiles %.0f FPS not below Sperke %.0f", hevc.FPS, sperke)
	}
	// But better than the fully serial configuration 1.
	serial := simFPS(t, fig5(t, 1))
	if hevc.FPS <= serial {
		t.Fatalf("HEVC tiles %.0f FPS not above serial %.0f", hevc.FPS, serial)
	}
}

func TestHEVCTilesValidation(t *testing.T) {
	cfg := fig5(t, 2)
	if _, err := SimulateHEVCTilesFPS(cfg, 0); err == nil {
		t.Fatal("zero duration accepted")
	}
	bad := cfg
	bad.Decoders = 0
	if _, err := SimulateHEVCTilesFPS(bad, time.Second); err == nil {
		t.Fatal("invalid config accepted")
	}
}
