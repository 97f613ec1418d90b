package sphere

import (
	"fmt"
	"math"
)

// Projection maps between viewing directions and normalized 2-D texture
// coordinates (u, v in [0,1]). Sperke's tiling substrate partitions the
// projected plane, so which projection a video uses determines which
// directions each tile covers. The paper calls out two deployed schemes:
// equirectangular (YouTube) and cube map (Facebook) (§2).
type Projection interface {
	// Name identifies the projection in MPDs and logs.
	Name() string
	// Forward maps a direction to texture coordinates.
	Forward(o Orientation) (u, v float64)
	// Inverse maps texture coordinates back to a direction.
	Inverse(u, v float64) Orientation
	// PixelEfficiency reports the fraction of stored pixels that carry
	// non-redundant content (1 = no oversampling). Equirectangular
	// oversamples the poles; cube map is closer to uniform.
	PixelEfficiency() float64
}

// Equirectangular is the projection used by YouTube 360 (§2): u is yaw
// mapped linearly across [0,1), v is pitch mapped linearly with v=0 at
// +90° (top).
type Equirectangular struct{}

// Name implements Projection.
func (Equirectangular) Name() string { return "equirectangular" }

// Forward implements Projection.
func (Equirectangular) Forward(o Orientation) (u, v float64) {
	o = o.Normalized()
	u = (o.Yaw + 180) / 360
	v = (90 - o.Pitch) / 180
	if u >= 1 {
		u -= 1
	}
	return u, v
}

// Inverse implements Projection.
func (Equirectangular) Inverse(u, v float64) Orientation {
	return Orientation{
		Yaw:   NormalizeYaw(u*360 - 180),
		Pitch: 90 - v*180,
	}.Normalized()
}

// PixelEfficiency implements Projection. An equirectangular frame
// stores each latitude band at full width although the band's true
// circumference shrinks as cos(pitch); the useful fraction is
// ∫cos/∫1 = 2/π.
func (Equirectangular) PixelEfficiency() float64 { return 2 / math.Pi }

// cubeFace identifies one of the six cube-map faces.
type cubeFace int

// Cube faces in Facebook layout order.
const (
	faceFront cubeFace = iota
	faceBack
	faceLeft
	faceRight
	faceTop
	faceBottom
)

var faceNames = [...]string{"front", "back", "left", "right", "top", "bottom"}

func (f cubeFace) String() string {
	if f < 0 || int(f) >= len(faceNames) {
		return fmt.Sprintf("face(%d)", int(f))
	}
	return faceNames[f]
}

// CubeMap is the projection employed by Facebook 360 (§2): the sphere is
// mapped onto six square faces laid out in a 3×2 atlas
// (front|back|left on the top row, right|top|bottom on the bottom row).
type CubeMap struct{}

// Name implements Projection.
func (CubeMap) Name() string { return "cubemap" }

// faceOf returns the dominant axis face for a direction and the in-face
// coordinates in [-1,1].
func faceOf(d Vec3) (cubeFace, float64, float64) {
	ax, ay, az := math.Abs(d.X), math.Abs(d.Y), math.Abs(d.Z)
	switch {
	case az >= ax && az >= ay:
		if d.Z > 0 {
			return faceFront, d.X / az, d.Y / az
		}
		return faceBack, -d.X / az, d.Y / az
	case ax >= ay:
		if d.X > 0 {
			return faceRight, -d.Z / ax, d.Y / ax
		}
		return faceLeft, d.Z / ax, d.Y / ax
	default:
		if d.Y > 0 {
			return faceTop, d.X / ay, -d.Z / ay
		}
		return faceBottom, d.X / ay, d.Z / ay
	}
}

// faceDirection inverts faceOf for in-face coordinates a,b in [-1,1].
func faceDirection(f cubeFace, a, b float64) Vec3 {
	switch f {
	case faceFront:
		return Vec3{X: a, Y: b, Z: 1}
	case faceBack:
		return Vec3{X: -a, Y: b, Z: -1}
	case faceRight:
		return Vec3{X: 1, Y: b, Z: -a}
	case faceLeft:
		return Vec3{X: -1, Y: b, Z: a}
	case faceTop:
		return Vec3{X: a, Y: 1, Z: -b}
	default: // faceBottom
		return Vec3{X: a, Y: -1, Z: b}
	}
}

// atlas positions: column, row for each face in the 3×2 layout.
var atlasPos = [6][2]int{
	faceFront:  {0, 0},
	faceBack:   {1, 0},
	faceLeft:   {2, 0},
	faceRight:  {0, 1},
	faceTop:    {1, 1},
	faceBottom: {2, 1},
}

// Forward implements Projection.
func (CubeMap) Forward(o Orientation) (u, v float64) {
	f, a, b := faceOf(o.Direction())
	// Map in-face [-1,1] to the face's atlas cell.
	fu := (a + 1) / 2
	fv := (1 - b) / 2 // texture v grows downward
	col, row := atlasPos[f][0], atlasPos[f][1]
	u = (float64(col) + fu) / 3
	v = (float64(row) + fv) / 2
	return clamp(u, 0, nextBelow(1)), clamp(v, 0, nextBelow(1))
}

func nextBelow(x float64) float64 { return math.Nextafter(x, 0) }

// Inverse implements Projection.
func (CubeMap) Inverse(u, v float64) Orientation {
	col := int(u * 3)
	row := int(v * 2)
	if col > 2 {
		col = 2
	}
	if row > 1 {
		row = 1
	}
	var face cubeFace
	for f, pos := range atlasPos {
		if pos[0] == col && pos[1] == row {
			face = cubeFace(f)
			break
		}
	}
	fu := u*3 - float64(col)
	fv := v*2 - float64(row)
	a := fu*2 - 1
	b := 1 - fv*2
	return FromDirection(faceDirection(face, a, b))
}

// PixelEfficiency implements Projection. A cube face oversamples its
// corners relative to its center; the useful fraction is π/6 per face
// area ratio ≈ 0.524/0.667 — conventionally quoted as ≈ 0.79 overall.
func (CubeMap) PixelEfficiency() float64 { return math.Pi / 4 }
