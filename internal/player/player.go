// Package player models the client-side rendering pipeline of Fig. 4 as
// a per-frame time model: parallel hardware decoders, the decoded-frame
// cache in video memory (OpenGL FBOs in the prototype), and the
// projection/display stage. It reproduces the §3.5 measurements: how
// the pipeline's structure — serial vs parallel decode, cached vs
// re-decoded frames, all-tile vs FoV-only rendering — determines the
// achievable frame rate (Figure 5).
//
// The decoders are the parallel hardware H.264 decoders of commodity
// phones (8 on a Samsung Galaxy S5, 16 on an S7). Their model is
// deliberately simple — a decoder sustains a pixel rate and each
// synchronous submission pays a fixed overhead — because that is all
// Figure 5's three configurations differ in: whether decodes serialize
// on the render thread, run in parallel across the pool, and whether
// non-FoV tiles are rendered at all.
package player

import (
	"fmt"
	"time"

	"sperke/internal/sphere"
	"sperke/internal/tiling"
	"sperke/internal/trace"
)

// framePixels is the full-panorama luma pixel count: the §3.5
// experiment's 2K 2560×1440 source.
const framePixels = 2560 * 1440

// PipelineConfig selects one rendering configuration. The viewer's FoV
// is sphere.DefaultFoV.
type PipelineConfig struct {
	Device DeviceProfile
	Grid   tiling.Grid
	// Decoders is how many of the device's hardware decoders the
	// pipeline uses in parallel.
	Decoders int
	// FrameCache enables the §3.5 optimizations: decoders run
	// asynchronously and deposit uncompressed tiles into the video-memory
	// cache, hiding submission overhead and decoupling decode from
	// render.
	FrameCache bool
	// RenderFoVOnly renders only the tiles inside the current FoV
	// instead of the whole panorama.
	RenderFoVOnly bool
}

// validate reports configuration problems.
func (c *PipelineConfig) validate() error {
	if err := c.Grid.Validate(); err != nil {
		return err
	}
	if c.Decoders <= 0 || c.Decoders > c.Device.HWDecoders {
		return fmt.Errorf("player: %d decoders outside device range 1..%d", c.Decoders, c.Device.HWDecoders)
	}
	return nil
}

// tilePixels returns the luma pixels of one tile.
func (c *PipelineConfig) tilePixels() int64 {
	return framePixels / int64(c.Grid.Tiles())
}

// renderedPixels returns how many pixels the render stage touches per
// frame: the whole panorama texture, or only the FoV's share when
// RenderFoVOnly is set.
func (c *PipelineConfig) renderedPixels() int64 {
	if !c.RenderFoVOnly {
		return framePixels
	}
	return int64(framePixels * sphere.DefaultFoV.SphereFraction())
}

// viewport is the configuration's grid seen through the FoV.
func (c *PipelineConfig) viewport() tiling.Viewport {
	return tiling.NewViewport(c.Grid, sphere.DefaultFoV)
}

// decodedTiles returns how many tiles must be decoded per frame: all of
// them when rendering the panorama, the set visible through vp (the
// configuration's viewport) when FoV-only.
func (c *PipelineConfig) decodedTiles(vp *tiling.Viewport, view sphere.Orientation) int {
	if !c.RenderFoVOnly {
		return c.Grid.Tiles()
	}
	return len(vp.Visible(view))
}

// frameTime returns the wall time one frame takes in this configuration
// for the given view direction, with the configuration's viewport built
// by the caller, so a replay builds it once.
//
// Without the frame cache every tile decode serializes on the render
// thread (paying submission overhead each time) and render follows;
// with it, decode runs on the pool concurrently with render, so the
// frame period is whichever stage is slower.
func (c *PipelineConfig) frameTime(vp *tiling.Viewport, view sphere.Orientation) time.Duration {
	tiles := c.decodedTiles(vp, view)
	render := c.Device.renderTime(c.renderedPixels())
	if !c.FrameCache {
		decodeAll := time.Duration(tiles) * c.Device.Decoder.syncDecodeTime(c.tilePixels())
		return decodeAll + render
	}
	// Async: each decoder handles ⌈tiles/decoders⌉ tiles per frame.
	waves := (tiles + c.Decoders - 1) / c.Decoders
	decodeStage := time.Duration(waves) * c.Device.Decoder.decodeTime(c.tilePixels())
	period := render
	if decodeStage > period {
		period = decodeStage
	}
	return period
}

// FPSResult is the outcome of a pipeline simulation.
type FPSResult struct {
	Frames int
	// FPS is the mean achieved frame rate, capped by the display.
	FPS float64
}

// SimulateFPS replays a head trace through the pipeline for its
// duration and returns the achieved frame rate.
func SimulateFPS(cfg PipelineConfig, head *trace.HeadTrace, dur time.Duration) (FPSResult, error) {
	if err := cfg.validate(); err != nil {
		return FPSResult{}, err
	}
	if dur <= 0 {
		return FPSResult{}, fmt.Errorf("player: non-positive duration")
	}
	minPeriod := time.Duration(float64(time.Second) / cfg.Device.MaxDisplayFPS)
	vp := cfg.viewport()
	var t time.Duration
	frames := 0
	for t < dur {
		view := sphere.Orientation{}
		if head != nil {
			view = head.At(t)
		}
		ft := cfg.frameTime(&vp, view)
		if ft < minPeriod {
			ft = minPeriod
		}
		t += ft
		frames++
	}
	return FPSResult{Frames: frames, FPS: float64(frames) / t.Seconds()}, nil
}

// Figure5Config returns the three §3.5 configurations on the given
// device with the paper's 2K, 2×4-tile setup:
//
//	1 — render all tiles without optimization (serial decode+render)
//	2 — render all tiles with optimization (8 parallel decoders + cache)
//	3 — render only FoV tiles with optimization
func Figure5Config(device DeviceProfile, config int) (PipelineConfig, error) {
	base := PipelineConfig{
		Device: device,
		Grid:   tiling.GridPrototype, // 2×4
	}
	switch config {
	case 1:
		base.Decoders = 1
		base.FrameCache = false
		base.RenderFoVOnly = false
	case 2:
		base.Decoders = 8
		base.FrameCache = true
		base.RenderFoVOnly = false
	case 3:
		base.Decoders = 8
		base.FrameCache = true
		base.RenderFoVOnly = true
	default:
		return PipelineConfig{}, fmt.Errorf("player: figure 5 has configs 1..3, got %d", config)
	}
	return base, nil
}

// hevcTilesFrameTime models the §3.5 comparison point: the H.265
// built-in "tiles" mechanism [40]. HEVC tiles parallelize decoding
// *within one decoder session* — the bitstream is one panorama, so the
// whole frame must always be decoded (no FoV-only decode, no per-tile
// quality) and intra-frame tile parallelism carries a synchronization
// penalty. It beats serial decoding but cannot skip non-FoV work, which
// is why it loses to Sperke's independent per-tile streams.
func (c *PipelineConfig) hevcTilesFrameTime() time.Duration {
	// Parallel efficiency of intra-frame tile threads (shared entropy
	// state, loop-filter sync): ~70%.
	const parallelEff = 0.7
	threads := c.Decoders
	if threads > c.Grid.Tiles() {
		threads = c.Grid.Tiles()
	}
	if threads < 1 {
		threads = 1
	}
	decode := time.Duration(framePixels /
		(c.Device.Decoder.PixelRate * float64(threads) * parallelEff) * float64(time.Second))
	decode += c.Device.Decoder.SubmitOverhead // one session submission per frame
	render := c.Device.renderTime(c.renderedPixels())
	// One decoder session: decode and render serialize on the frame.
	return decode + render
}

// SimulateHEVCTilesFPS measures the HEVC-tiles pipeline's frame rate
// for the same configuration geometry.
func SimulateHEVCTilesFPS(cfg PipelineConfig, dur time.Duration) (FPSResult, error) {
	if err := cfg.validate(); err != nil {
		return FPSResult{}, err
	}
	if dur <= 0 {
		return FPSResult{}, fmt.Errorf("player: non-positive duration")
	}
	minPeriod := time.Duration(float64(time.Second) / cfg.Device.MaxDisplayFPS)
	ft := cfg.hevcTilesFrameTime()
	if ft < minPeriod {
		ft = minPeriod
	}
	frames := int(dur / ft)
	if frames < 1 {
		frames = 1
	}
	return FPSResult{Frames: frames, FPS: float64(time.Second) / float64(ft)}, nil
}
