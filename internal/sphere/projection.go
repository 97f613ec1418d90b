package sphere

import "math"

// Equirectangular is the texture space every tile grid partitions: the
// projection YouTube 360 uses (§2). u is yaw mapped linearly across
// [0,1), v is pitch mapped linearly with v=0 at +90° (top).
type Equirectangular struct{}

// Forward maps a direction to texture coordinates.
func (Equirectangular) Forward(o Orientation) (u, v float64) {
	o = o.Normalized()
	u = (o.Yaw + 180) / 360
	v = (90 - o.Pitch) / 180
	if u >= 1 {
		u -= 1
	}
	return u, v
}

// Inverse maps texture coordinates back to a direction.
func (Equirectangular) Inverse(u, v float64) Orientation {
	return Orientation{
		Yaw:   NormalizeYaw(u*360 - 180),
		Pitch: 90 - v*180,
	}.Normalized()
}

// PixelEfficiency reports the fraction of stored pixels that carry
// non-redundant content (1 = no oversampling). An equirectangular frame
// stores each latitude band at full width although the band's true
// circumference shrinks as cos(pitch); the useful fraction is
// ∫cos/∫1 = 2/π.
func (Equirectangular) PixelEfficiency() float64 { return 2 / math.Pi }
