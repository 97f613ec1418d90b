// Package tiling implements Sperke's spatial segmentation substrate
// (Fig. 2 of the paper): a panoramic video is divided into a grid of
// tiles in projected texture space, each tile is encoded at multiple
// quality levels, and each (quality, tile) pair is split temporally into
// chunks. A chunk C(q, l, t) is the smallest downloadable unit.
//
// The package answers the two geometric questions FoV-guided streaming
// asks every scheduling round:
//
//  1. which tiles cover the (predicted) FoV, and
//  2. which tiles form the surrounding out-of-sight (OOS) rings that
//     absorb head-movement prediction error (§3.1.1).
package tiling

import (
	"fmt"
	"math"
	"math/bits"
	"time"

	"sperke/internal/sphere"
)

// TileID identifies a tile within a Grid, row-major from the top-left.
type TileID int

// Grid is a Rows×Cols tile partition of the equirectangular frame
// (sphere.Equirectangular): rows split pitch from the top, columns yaw
// from −180°. The paper's prototype uses 2×4 on a 2K video (§3.5); its
// cellular study [37] uses 4×6.
type Grid struct {
	Rows, Cols int
}

// Common grids referenced by the paper and its citations.
var (
	GridPrototype = Grid{Rows: 2, Cols: 4} // §3.5 preliminary system
	GridCellular  = Grid{Rows: 4, Cols: 6} // [37]
)

// Validate reports an error for degenerate grids.
func (g Grid) Validate() error {
	if g.Rows < 1 || g.Cols < 1 {
		return fmt.Errorf("tiling: invalid grid %dx%d", g.Rows, g.Cols)
	}
	return nil
}

// Tiles returns the number of tiles in the grid.
func (g Grid) Tiles() int { return g.Rows * g.Cols }

// Tile returns the TileID at (row, col), wrapping the column around the
// yaw seam and clamping the row at the poles.
func (g Grid) Tile(row, col int) TileID {
	if row < 0 {
		row = 0
	}
	if row >= g.Rows {
		row = g.Rows - 1
	}
	col %= g.Cols
	if col < 0 {
		col += g.Cols
	}
	return TileID(row*g.Cols + col)
}

// rowCol returns the (row, col) of a tile.
func (g Grid) rowCol(id TileID) (row, col int) {
	return int(id) / g.Cols, int(id) % g.Cols
}

// Valid reports whether id addresses a tile of this grid.
func (g Grid) Valid(id TileID) bool { return id >= 0 && int(id) < g.Tiles() }

// rect returns the tile's texture-space rectangle [u0,u1)×[v0,v1).
func (g Grid) rect(id TileID) (u0, v0, u1, v1 float64) {
	row, col := g.rowCol(id)
	u0 = float64(col) / float64(g.Cols)
	u1 = float64(col+1) / float64(g.Cols)
	v0 = float64(row) / float64(g.Rows)
	v1 = float64(row+1) / float64(g.Rows)
	return u0, v0, u1, v1
}

// tileAt returns the tile containing texture coordinates (u, v),
// clamping coordinates into [0,1). The result is a tile of the grid
// for every float: NaN lands in column (row) 0, +Inf in the last.
func (g Grid) tileAt(u, v float64) TileID {
	return TileID(cell(v, g.Rows)*g.Cols + cell(u, g.Cols))
}

// cell returns which of n equal cells of [0,1) holds x. The compares
// run on the scaled float, so no out-of-range or NaN value ever reaches
// the int conversion (whose result for those is platform-defined).
func cell(x float64, n int) int {
	f := x * float64(n)
	if !(f > 0) {
		return 0
	}
	if f >= float64(n) {
		return n - 1
	}
	return int(f)
}

// fovSamples is the side of the angular lattice a Viewport lays over
// the frustum: samples sit FoV/16 apart and include the frustum's
// edges and corners. Every tile holding a lattice point is reported; a
// tile the FoV only grazes between two points (a sliver narrower than
// FoV/16 in view space) is not. At 100°×90° that pitch is about 6°,
// against 60°-wide tiles on the 4×6 grid.
const fovSamples = 17

// Viewport is a tile grid seen through one field of view: the two
// things every "which tiles are on screen" question in a session
// shares, with what depends on them alone — the lattice angles' sines
// and cosines, the grid's borders — worked out once by NewViewport. It
// is a plain value of about 2 KB with no pointers into itself: build it
// where the pair is decided, keep it there, and copy it freely. A query
// does not modify it.
type Viewport struct {
	g Grid

	sinX, cosX, sinY, cosY [fovSamples]float64
	// classify says b is filled (the grid fits the border tables), so a
	// sample's tile can be read off its direction vector (borders.tileOf).
	classify bool
	b        borders
}

// NewViewport returns the viewport of FoV fov on grid g.
func NewViewport(g Grid, fov sphere.FoV) Viewport {
	vp := Viewport{g: g}
	for i := range vp.sinX {
		f := float64(i)/(fovSamples-1) - 0.5
		vp.sinX[i], vp.cosX[i] = sincos(f * fov.Width)
		vp.sinY[i], vp.cosY[i] = sincos(f * fov.Height)
	}
	vp.classify = g.Validate() == nil && vp.b.init(g)
	return vp
}

// Grid returns the viewport's tile grid.
func (vp *Viewport) Grid() Grid { return vp.g }

// Mark sets set[id] for every tile id that covers any part of the FoV
// when looking along view, and touches no other entry: marking several
// views into one set yields their union. set must hold an entry per
// tile of the grid. An invalid grid has no tiles. Mark allocates
// nothing and keeps nothing between calls; it is the form the other
// queries are built on, because it is the one a caller who already owns
// a set can use without a result being made for it.
//
// Per call only the view's three rotations cost trigonometry; per
// sample the same products and sums run in the same order as rotating a
// freshly built direction, and the rotated direction is classified
// against the borders instead of being turned back into angles, except
// where it is too close to one to call or the grid does not fit the
// border tables (borders.tileOf). The tiles are the ones the unhoisted
// form (visibleTilesRef in the tests) yields, for every input.
func (vp *Viewport) Mark(view sphere.Orientation, set []bool) {
	if vp.g.Validate() == nil {
		vp.mark(view, set)
	}
}

// AppendVisible appends the tiles Mark would mark, in id order, to dst
// and returns the extended slice. With room in dst it allocates nothing
// on grids of up to 64 tiles.
func (vp *Viewport) AppendVisible(dst []TileID, view sphere.Orientation) []TileID {
	dst, _ = vp.appendVisible(dst, view)
	return dst
}

// Visible returns the sorted set of tiles that cover any part of the
// FoV when looking along view. The result is the minimal fetch set when
// head-movement prediction is perfect (§3.1.2, "super chunk"
// construction). An invalid grid has no tiles.
func (vp *Viewport) Visible(view sphere.Orientation) []TileID {
	return vp.AppendVisible(nil, view)
}

// VisibleTiles is NewViewport(g, fov).Visible(view), for a caller with
// one question to ask.
func VisibleTiles(g Grid, view sphere.Orientation, fov sphere.FoV) []TileID {
	out, _ := visibleTiles(g, view, fov)
	return out
}

// visibleTiles is VisibleTiles plus the result of mark.
func visibleTiles(g Grid, view sphere.Orientation, fov sphere.FoV) (out []TileID, exact int) {
	vp := NewViewport(g, fov)
	return vp.appendVisible(nil, view)
}

// appendVisible is AppendVisible plus the result of mark.
func (vp *Viewport) appendVisible(dst []TileID, view sphere.Orientation) ([]TileID, int) {
	if vp.g.Validate() != nil {
		return dst, 0
	}
	var stack [64]bool // grids up to 64 tiles keep their seen-set off the heap
	tiles := vp.g.Tiles()
	seen := stack[:min(tiles, len(stack))]
	if tiles > len(stack) {
		seen = make([]bool, tiles)
	}
	exact := vp.mark(view, seen)
	n := 0
	for _, in := range seen {
		if in {
			n++
		}
	}
	if cap(dst)-len(dst) < n { // one exact-size allocation, when any
		dst = append(make([]TileID, 0, len(dst)+n), dst...)
	}
	for id, in := range seen {
		if in {
			dst = append(dst, TileID(id))
		}
	}
	return dst, exact
}

// mark is Mark on a grid its caller has validated, plus the number of
// samples whose tile came from the exact expression (all of them on a
// grid beyond the border tables), which the tests read to show the
// guard band is in use. Where the lattice kernel runs (markLattice:
// a classifying viewport, at most 64 tiles, a CPU that has it) its
// answer is the loop's, mask for mask and count for count.
func (vp *Viewport) mark(view sphere.Orientation, set []bool) (exact int) {
	r := newRotation(view)
	if vectorMark && vp.classify && vp.g.Tiles() <= 64 {
		return vp.markKernel(&r, set)
	}
	return vp.markLoop(&r, set)
}

// markLoop is mark one sample at a time: the reference for the kernel
// and the only path for other grids and CPUs.
func (vp *Viewport) markLoop(r *rotation, set []bool) (exact int) {
	for i := 0; i < fovSamples; i++ {
		for j := 0; j < fovSamples; j++ {
			d := vp.direction(r, i, j)
			id, ok := TileID(0), false
			if vp.classify {
				id, ok = vp.b.tileOf(d)
			}
			if !ok {
				id = vp.exactTile(d)
				exact++
			}
			set[id] = true
		}
	}
	return exact
}

// markGroups is the number of eight-lane groups markLattice covers the
// lattice in (latticeSample): 17 rows of two groups, and the last column
// in three, the third of one lane.
const markGroups = 2*fovSamples + 3

// latticeSample is the lattice sample (i, j) in lane lane of group g.
func latticeSample(g, lane int) (i, j int) {
	if g < 2*fovSamples {
		return g / 2, g%2*8 + lane
	}
	return (g-2*fovSamples)*8 + lane, fovSamples - 1
}

// markKernel is mark by markLattice: the tiles it classified are set
// from its mask, and every lane it handed back — not provably inside
// one tile — from the loop's exact expression on the loop's direction.
func (vp *Viewport) markKernel(r *rotation, set []bool) (exact int) {
	var handed [markGroups]uint8
	for tiles := markLattice(vp, r, &handed); tiles != 0; tiles &= tiles - 1 {
		set[bits.TrailingZeros64(tiles)] = true
	}
	for g, lanes := range handed {
		for ; lanes != 0; lanes &= lanes - 1 {
			i, j := latticeSample(g, bits.TrailingZeros8(lanes))
			set[vp.exactTile(vp.direction(r, i, j))] = true
			exact++
		}
	}
	return exact
}

// rotation holds the sines and cosines of a view's roll, pitch and yaw:
// all the trigonometry a query costs.
type rotation struct {
	sinRoll, cosRoll, sinPitch, cosPitch, sinYaw, cosYaw float64
}

func newRotation(view sphere.Orientation) (r rotation) {
	r.sinRoll, r.cosRoll = sincos(view.Roll)
	r.sinPitch, r.cosPitch = sincos(view.Pitch)
	r.sinYaw, r.cosYaw = sincos(view.Yaw)
	return r
}

// direction is lattice sample (i, j): the direction at view-space
// angles (hx_i, hy_j), rotated into world space by roll, pitch, yaw
// (the inverse order of sphere.angleInView).
func (vp *Viewport) direction(r *rotation, i, j int) sphere.Vec3 {
	d := sphere.Vec3{X: vp.cosY[j] * vp.sinX[i], Y: vp.sinY[j], Z: vp.cosY[j] * vp.cosX[i]}
	d = rotZ(d, r.sinRoll, r.cosRoll)
	d = rotX(d, r.sinPitch, r.cosPitch)
	return rotY(d, r.sinYaw, r.cosYaw)
}

// exactTile is the tile under direction d by the exact expression.
func (vp *Viewport) exactTile(d sphere.Vec3) TileID {
	return vp.g.tileAt(sphere.Equirectangular{}.Forward(sphere.FromDirection(d)))
}

// guard is the margin δ a direction must keep from every tile border it
// is compared with for borders.tileOf to answer. It is measured on the
// sine of an angle, and |sin a − sin b| ≤ |a − b|, so the angle is at
// least δ rad (5.7e-8°) from the border: seven orders of magnitude above
// the rounding of the asin/atan2 → degrees → texture → cell chain
// (< 1e-13°), which therefore lands on the same side.
const guard = 1e-9

// maxBorders bounds the rows and columns whose borders fit the
// stack-resident tables; a grid beyond it takes the exact expression.
const maxBorders = 64

// borders holds a grid's tile borders in the form a
// direction vector is compared with directly: a row border at pitch θ
// is the plane Y = sin θ, a column border at yaw φ the half-plane
// through the vertical axis on which X·cos φ − Z·sin φ (that is
// ρ·sin(yaw − φ), ρ² = X² + Z²) changes sign.
type borders struct {
	rows, cols int
	sinRow     [maxBorders]float64 // [r], 1 ≤ r < rows: sine of the pitch where row r-1 ends and row r begins
	sinCol     [maxBorders]float64 // [k], 0 ≤ k < cols: sine and cosine of the
	cosCol     [maxBorders]float64 // yaw where column k begins
}

// init fills the tables for g and reports whether g fits them.
func (b *borders) init(g Grid) bool {
	if g.Rows > maxBorders || g.Cols > maxBorders {
		return false
	}
	b.rows, b.cols = g.Rows, g.Cols
	for r := 1; r < g.Rows; r++ {
		b.sinRow[r], _ = sincos(90 - 180*float64(r)/float64(g.Rows))
	}
	for k := 0; k < g.Cols; k++ {
		b.sinCol[k], b.cosCol[k] = sincos(360*float64(k)/float64(g.Cols) - 180)
	}
	return true
}

// tileOf returns the tile g.tileAt(Equirectangular.Forward(
// sphere.FromDirection(d))) returns, without the inverse trigonometry,
// or ok = false when d is not provably inside one tile: d is not a unit
// vector to 1e-12 (FromDirection divides by the norm; here Y is compared
// as it is), d is within 1e-3 of a pole (where yaw is ill-conditioned),
// or d is within guard of a border it is compared with. Every test is
// written so that a NaN fails it.
//
// Rows and columns are both found by bisection, so only the compared
// borders need the margin: the others lie beyond them.
func (b *borders) tileOf(d sphere.Vec3) (id TileID, ok bool) {
	rho2 := d.X*d.X + d.Z*d.Z
	if !(math.Abs(rho2+d.Y*d.Y-1) <= 1e-12 && rho2 >= 1e-6) {
		return 0, false
	}
	// Pitch falls as the row index grows: row ≥ r iff Y < sinRow[r].
	row, end := 0, b.rows
	for end-row > 1 {
		mid := (row + end) / 2
		switch m := d.Y - b.sinRow[mid]; {
		case m < -guard:
			row = mid
		case m > guard:
			end = mid
		default:
			return 0, false
		}
	}
	col := 0
	if b.cols > 1 {
		// side(k) is positive iff the yaw is past the start of column k by
		// less than a half turn. Column 0 starts at the seam, so side(0)
		// picks the half of the frame, and within a half side(k) falls
		// from positive to negative as k passes the yaw's column.
		end := (b.cols + 1) / 2
		switch m := b.side(d, 0); {
		case m > guard:
		case m < -guard:
			col, end = b.cols/2, b.cols
		default:
			return 0, false
		}
		for end-col > 1 {
			mid := (col + end) / 2
			switch m := b.side(d, mid); {
			case m > guard:
				col = mid
			case m < -guard:
				end = mid
			default:
				return 0, false
			}
		}
	}
	return TileID(row*b.cols + col), true
}

// side returns ρ·sin(yaw − φ_k) for the direction d: which side of the
// start of column k it lies on, and by how much.
func (b *borders) side(d sphere.Vec3, k int) float64 {
	return d.X*b.cosCol[k] - d.Z*b.sinCol[k]
}

// rotY rotates v about the vertical axis by the angle whose sine and
// cosine are s and c.
func rotY(v sphere.Vec3, s, c float64) sphere.Vec3 {
	return sphere.Vec3{X: v.X*c + v.Z*s, Y: v.Y, Z: -v.X*s + v.Z*c}
}

// rotX applies the pitch rotation convention of sphere.Orientation:
// rotX(p) maps (0,0,1) to (0, sin p, cos p).
func rotX(v sphere.Vec3, s, c float64) sphere.Vec3 {
	return sphere.Vec3{X: v.X, Y: v.Y*c + v.Z*s, Z: -v.Y*s + v.Z*c}
}

func rotZ(v sphere.Vec3, s, c float64) sphere.Vec3 {
	return sphere.Vec3{X: v.X*c - v.Y*s, Y: v.X*s + v.Y*c, Z: v.Z}
}

// sincos returns math.Sin and math.Cos of an angle in degrees, bit for
// bit, from one argument reduction (sphere's TestSincosIsSinAndCos).
func sincos(deg float64) (s, c float64) {
	return math.Sincos(deg * math.Pi / 180)
}

// Ring returns the tiles exactly dist grid steps (Chebyshev distance,
// with yaw wraparound) away from the given tile set, in id order.
// Ring(s, 1) is the first OOS ring around the FoV tiles; Ring(s, 2) the
// second; and so on. Tiles in the input set are never part of any ring.
func Ring(g Grid, set []TileID, dist int) []TileID {
	if dist <= 0 {
		return nil
	}
	var out []TileID
	for id, d := range Distances(g, set) {
		if d == dist {
			out = append(out, TileID(id))
		}
	}
	return out
}

// Distances returns each tile's grid distance (Chebyshev steps with yaw
// wraparound) from the given set, indexed by tile id. Tiles in the set
// have distance 0; when the set holds no tile of the grid every entry
// is -1. Used by OOS quality falloff: "the further away they are from
// X, the lower their qualities will be" (§3.1.1).
func Distances(g Grid, set []TileID) []int {
	dist := make([]int, g.Tiles())
	for i := range dist {
		dist[i] = -1
	}
	// Breadth-first over the wrap-aware neighborhood; queue[head:] is
	// the frontier.
	queue := make([]TileID, 0, len(dist))
	for _, id := range set {
		if g.Valid(id) && dist[id] < 0 {
			dist[id] = 0
			queue = append(queue, id)
		}
	}
	for head := 0; head < len(queue); head++ {
		id := queue[head]
		row, col := g.rowCol(id)
		for nr := row - 1; nr <= row+1; nr++ {
			if nr < 0 || nr >= g.Rows {
				continue
			}
			for nc := col - 1; nc <= col+1; nc++ {
				if n := g.Tile(nr, nc); dist[n] < 0 {
					dist[n] = dist[id] + 1
					queue = append(queue, n)
				}
			}
		}
	}
	return dist
}

// ChunkID addresses a chunk C(q, l, t): quality level q, tile l, start
// time t (Fig. 2). Quality 0 is the lowest level of the ladder. For
// SVC-encoded content, Quality doubles as the layer index (§3.1.1).
type ChunkID struct {
	Quality int
	Tile    TileID
	Start   time.Duration
}

func (c ChunkID) String() string {
	return fmt.Sprintf("C(q=%d, l=%d, t=%v)", c.Quality, c.Tile, c.Start)
}
