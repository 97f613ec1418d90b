// Package sphere implements the spherical geometry that underpins
// FoV-guided 360° streaming: viewing orientations (yaw/pitch/roll, Fig. 1
// of the paper), field-of-view frusta, great-circle distances, and the
// equirectangular projection (YouTube's, §2) whose texture space the
// tile grids partition.
//
// All angles are in degrees at the API boundary (matching how headsets
// and the paper report them) and converted to radians internally.
package sphere

import (
	"fmt"
	"math"
)

// Orientation is a viewing direction: yaw (rotation about the vertical
// axis, positive to the right), pitch (elevation, positive up) and roll
// (rotation about the view axis). Yaw is normalized to [-180, 180);
// pitch is clamped to [-90, 90].
type Orientation struct {
	Yaw, Pitch, Roll float64
}

// NormalizeYaw maps any yaw angle into [-180, 180).
func NormalizeYaw(yaw float64) float64 {
	t := yaw + 180
	if 0 <= t && t < 360 {
		// Already normal — nearly every angle a session handles. Mod
		// returns t itself on this range, so skipping it changes no bit.
		return t - 180
	}
	y := math.Mod(t, 360)
	if y < 0 {
		y += 360
	}
	return y - 180
}

// Normalized returns the orientation with yaw wrapped into [-180, 180)
// and pitch clamped to [-90, 90].
func (o Orientation) Normalized() Orientation {
	p := o.Pitch
	if p > 90 {
		p = 90
	}
	if p < -90 {
		p = -90
	}
	return Orientation{Yaw: NormalizeYaw(o.Yaw), Pitch: p, Roll: NormalizeYaw(o.Roll)}
}

func (o Orientation) String() string {
	return fmt.Sprintf("(yaw %.1f°, pitch %.1f°, roll %.1f°)", o.Yaw, o.Pitch, o.Roll)
}

// Vec3 is a direction in the right-handed world frame: +Z forward
// (yaw 0, pitch 0), +X right, +Y up.
type Vec3 struct {
	X, Y, Z float64
}

// Dot returns the scalar product a·b.
func (a Vec3) Dot(b Vec3) float64 { return a.X*b.X + a.Y*b.Y + a.Z*b.Z }

// norm returns the Euclidean length.
func (a Vec3) norm() float64 { return math.Sqrt(a.Dot(a)) }

// Direction converts the orientation's view axis into a unit vector.
// Roll does not affect the axis.
func (o Orientation) Direction() Vec3 {
	// One argument reduction per angle; math.Sincos returns math.Sin's and
	// math.Cos's bits (TestSincosIsSinAndCos).
	sinYaw, cosYaw := math.Sincos(o.Yaw * math.Pi / 180)
	sinPitch, cosPitch := math.Sincos(o.Pitch * math.Pi / 180)
	return Vec3{
		X: cosPitch * sinYaw,
		Y: sinPitch,
		Z: cosPitch * cosYaw,
	}
}

// FromDirection converts a (not necessarily unit) direction vector back
// to an orientation with zero roll. The zero vector maps to the zero
// orientation.
func FromDirection(v Vec3) Orientation {
	n := v.norm()
	if n == 0 {
		return Orientation{}
	}
	pitch := math.Asin(clamp(v.Y/n, -1, 1)) * 180 / math.Pi
	yaw := math.Atan2(v.X, v.Z) * 180 / math.Pi
	return Orientation{Yaw: yaw, Pitch: pitch}
}

func clamp(x, lo, hi float64) float64 {
	if x < lo {
		return lo
	}
	if x > hi {
		return hi
	}
	return x
}

// AngularDistance returns the great-circle angle in degrees between the
// view axes of a and b. This is the |X - X'| prediction-error metric of
// §3.1.1.
func AngularDistance(a, b Orientation) float64 {
	d := clamp(a.Direction().Dot(b.Direction()), -1, 1)
	return math.Acos(d) * 180 / math.Pi
}

// FoV is the field of view of a headset or on-screen viewport, in
// degrees. The paper notes width and height are fixed parameters of the
// device (§2); DefaultFoV matches a Cardboard-class headset.
type FoV struct {
	Width, Height float64
}

// DefaultFoV is a typical mobile-VR viewport (100° × 90°).
var DefaultFoV = FoV{Width: 100, Height: 90}

// solidAngleSr returns the solid angle of the FoV frustum in steradians,
// computed exactly for a rectangular frustum:
//
//	Ω = 4·asin( sin(w/2)·sin(h/2) )
func (f FoV) solidAngleSr() float64 {
	w := f.Width * math.Pi / 360  // half-width in radians
	h := f.Height * math.Pi / 360 // half-height in radians
	return 4 * math.Asin(math.Sin(w)*math.Sin(h))
}

// SphereFraction returns the fraction of the full sphere the FoV covers.
// For the default 100°×90° FoV this is ≈ 0.20, which is where the
// paper's "360° videos are around 5× larger than conventional videos
// under the same perceived quality" claim comes from (§1).
func (f FoV) SphereFraction() float64 { return f.solidAngleSr() / (4 * math.Pi) }

// Contains reports whether the direction target falls inside the FoV
// frustum when looking along view. The target is transformed into the
// viewer's frame (undoing yaw, pitch, then roll) and tested against the
// angular half-extents.
func Contains(view Orientation, fov FoV, target Orientation) bool {
	hx, hy := angleInView(view, target)
	return math.Abs(hx) <= fov.Width/2 && math.Abs(hy) <= fov.Height/2
}

// angleInView returns the horizontal and vertical view-space angles (in
// degrees) of target as seen from view.
func angleInView(view, target Orientation) (hx, hy float64) {
	v := target.Direction()
	// Undo yaw: rotate about Y by -yaw.
	yaw := -view.Yaw * math.Pi / 180
	v = Vec3{
		X: v.X*math.Cos(yaw) + v.Z*math.Sin(yaw),
		Y: v.Y,
		Z: -v.X*math.Sin(yaw) + v.Z*math.Cos(yaw),
	}
	// Undo pitch. The forward pitch rotation maps (0,0,1) to
	// (0, sin p, cos p); its inverse is Y' = Y·cos p − Z·sin p,
	// Z' = Y·sin p + Z·cos p.
	pitch := view.Pitch * math.Pi / 180
	v = Vec3{
		X: v.X,
		Y: v.Y*math.Cos(pitch) - v.Z*math.Sin(pitch),
		Z: v.Y*math.Sin(pitch) + v.Z*math.Cos(pitch),
	}
	// Undo roll: rotate about Z by -roll.
	roll := -view.Roll * math.Pi / 180
	v = Vec3{
		X: v.X*math.Cos(roll) - v.Y*math.Sin(roll),
		Y: v.X*math.Sin(roll) + v.Y*math.Cos(roll),
		Z: v.Z,
	}
	hx = math.Atan2(v.X, v.Z) * 180 / math.Pi
	hy = math.Atan2(v.Y, math.Hypot(v.X, v.Z)) * 180 / math.Pi
	return hx, hy
}

// Lerp interpolates between two orientations along the shortest yaw arc;
// t=0 gives a, t=1 gives b. Used by head-movement trace generation and
// by predictors that extrapolate.
func Lerp(a, b Orientation, t float64) Orientation {
	dy := NormalizeYaw(b.Yaw - a.Yaw)
	return Orientation{
		Yaw:   NormalizeYaw(a.Yaw + dy*t),
		Pitch: a.Pitch + (b.Pitch-a.Pitch)*t,
		Roll:  NormalizeYaw(a.Roll + NormalizeYaw(b.Roll-a.Roll)*t),
	}.Normalized()
}
