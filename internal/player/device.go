package player

import "time"

// decoderSpec is the throughput model of one hardware decoder.
type decoderSpec struct {
	// PixelRate is the sustained decode rate in luma pixels/second.
	PixelRate float64
	// SubmitOverhead is the fixed cost of a synchronous submission
	// (buffer setup, codec state switch). Asynchronous pipelines hide
	// it behind the previous decode.
	SubmitOverhead time.Duration
}

// decodeTime returns the pure decode time for a frame of the given
// pixel count, excluding submission overhead.
func (d decoderSpec) decodeTime(pixels int64) time.Duration {
	if pixels <= 0 || d.PixelRate <= 0 {
		return 0
	}
	return time.Duration(float64(pixels) / d.PixelRate * float64(time.Second))
}

// syncDecodeTime returns the wall time of a blocking decode: pure decode
// plus submission overhead.
func (d decoderSpec) syncDecodeTime(pixels int64) time.Duration {
	return d.decodeTime(pixels) + d.SubmitOverhead
}

// DeviceProfile describes a phone's decode and render capabilities.
type DeviceProfile struct {
	Name string
	// HWDecoders is the number of hardware decoder instances the SoC
	// exposes (§3.5: 8 for SGS5, 16 for SGS7).
	HWDecoders int
	Decoder    decoderSpec
	// RenderPixelRate is the GPU texture/composite rate in pixels/second
	// for projecting and displaying tiles.
	RenderPixelRate float64
	// RenderOverhead is the fixed per-frame compositor cost.
	RenderOverhead time.Duration
	// MaxDisplayFPS caps the achievable frame rate (display refresh).
	MaxDisplayFPS float64
}

// renderTime returns the time to project and display the given number
// of pixels in one frame.
func (p DeviceProfile) renderTime(pixels int64) time.Duration {
	if p.RenderPixelRate <= 0 {
		return p.RenderOverhead
	}
	return p.RenderOverhead + time.Duration(float64(pixels)/p.RenderPixelRate*float64(time.Second))
}

// Device profiles calibrated against the paper's §3.5 measurements
// (2K video, 2×4 tiles on SGS7: 11 FPS unoptimized, 53 FPS with the
// parallel-decode pipeline, 120 FPS rendering FoV only).
var (
	SGS7 = DeviceProfile{
		Name:       "SGS7",
		HWDecoders: 16,
		Decoder: decoderSpec{
			PixelRate:      80e6,
			SubmitOverhead: 3300 * time.Microsecond,
		},
		RenderPixelRate: 218e6,
		RenderOverhead:  2 * time.Millisecond,
		MaxDisplayFPS:   120,
	}
	SGS5 = DeviceProfile{
		Name:       "SGS5",
		HWDecoders: 8,
		Decoder: decoderSpec{
			PixelRate:      48e6,
			SubmitOverhead: 4500 * time.Microsecond,
		},
		RenderPixelRate: 130e6,
		RenderOverhead:  3 * time.Millisecond,
		MaxDisplayFPS:   60,
	}
)
