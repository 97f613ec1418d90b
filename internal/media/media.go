// Package media models the 360° video content Sperke streams: bitrate
// ladders, per-tile chunk sizes, AVC vs SVC encodings (§3.1.1), the
// Oculus-style versioning scheme the paper contrasts tiling with (§2),
// and a binary segment container used on the wire by the DASH and live
// substrates.
//
// Sperke never decodes pixels — every streaming decision in the paper
// depends on chunk sizes, timing, and layer dependencies, which this
// package produces deterministically from a video's identity. Sizes are
// reproducible across runs: the same video ID always yields the same
// per-tile complexity map and per-chunk variation.
package media

import (
	"fmt"
	"sync/atomic"
	"time"
	"unsafe"

	"sperke/internal/tiling"
)

// Bitrate is a media rate in bits per second.
type Bitrate float64

// Convenience constructors for readable ladders.
const (
	Kbps Bitrate = 1e3
	mbps Bitrate = 1e6
)

func (b Bitrate) String() string {
	switch {
	case b >= mbps:
		return fmt.Sprintf("%.2fMbps", float64(b)/1e6)
	case b >= Kbps:
		return fmt.Sprintf("%.1fKbps", float64(b)/1e3)
	default:
		return fmt.Sprintf("%.0fbps", float64(b))
	}
}

// BytesIn returns how many bytes the rate produces over d.
func (b Bitrate) BytesIn(d time.Duration) int64 {
	return int64(float64(b) * d.Seconds() / 8)
}

// QualityLevel is one rung of a bitrate ladder: the resolution and rate
// of the full panoramic frame at that quality.
type QualityLevel struct {
	Name    string
	Width   int // full-panorama luma width in pixels
	Height  int // full-panorama luma height in pixels
	Bitrate Bitrate
}

// DefaultLadder is a six-level panoramic ladder bracketing the rates the
// paper observes on commercial platforms (YouTube live offers six levels
// from 144p to 1080p, §3.4.1; on-demand 360° content goes to 4K).
var DefaultLadder = []QualityLevel{
	{Name: "240p", Width: 960, Height: 480, Bitrate: 400 * Kbps},
	{Name: "360p", Width: 1280, Height: 640, Bitrate: 800 * Kbps},
	{Name: "480p", Width: 1920, Height: 960, Bitrate: 1600 * Kbps},
	{Name: "720p", Width: 2560, Height: 1280, Bitrate: 3200 * Kbps},
	{Name: "1080p", Width: 3840, Height: 1920, Bitrate: 6400 * Kbps},
	{Name: "4K", Width: 5120, Height: 2560, Bitrate: 12800 * Kbps},
}

// LiveLadder mirrors the paper's YouTube live observation: six levels
// from 144p to 1080p (§3.4.1).
var LiveLadder = []QualityLevel{
	{Name: "144p", Width: 640, Height: 320, Bitrate: 200 * Kbps},
	{Name: "240p", Width: 960, Height: 480, Bitrate: 400 * Kbps},
	{Name: "360p", Width: 1280, Height: 640, Bitrate: 750 * Kbps},
	{Name: "480p", Width: 1920, Height: 960, Bitrate: 1200 * Kbps},
	{Name: "720p", Width: 2560, Height: 1280, Bitrate: 2000 * Kbps},
	{Name: "1080p", Width: 3840, Height: 1920, Bitrate: 3500 * Kbps},
}

// Encoding selects how chunks of a video are coded (§3.1.1, Fig. 3).
type Encoding int

const (
	// EncodingAVC is conventional single-layer coding: each quality is an
	// independent bitstream; upgrading a fetched chunk means re-fetching
	// it entirely at the higher quality.
	EncodingAVC Encoding = iota
	// EncodingSVC is scalable layered coding: one base layer plus
	// enhancement layers; upgrading fetches only the missing layers
	// ("delta encoding"). Each layer carries a size overhead relative to
	// the AVC delta it replaces.
	EncodingSVC
)

func (e Encoding) String() string {
	if e == EncodingSVC {
		return "SVC"
	}
	return "AVC"
}

// svcOverhead is the per-layer size inflation of SVC relative to
// single-layer AVC at the same quality — around 10% per layer in the
// H.264/SVC literature the paper builds on [12, 31].
const svcOverhead = 0.10

// Video describes one panoramic title: its temporal and spatial
// chunking (Fig. 2) and its encoding. ProjectionName is an informational
// label carried into the MPD; it selects nothing, since every grid
// partitions the equirectangular frame (sphere.Equirectangular).
type Video struct {
	ID             string
	Duration       time.Duration
	ChunkDuration  time.Duration
	Grid           tiling.Grid
	ProjectionName string
	Ladder         []QualityLevel
	Encoding       Encoding

	// rates is the *rateModel built on first use, read and written
	// atomically: sessions and server handlers share one *Video. It is
	// a bare pointer, not an atomic.Pointer, so a Video stays copyable
	// by value; a copy whose ID, grid or durations change builds its own.
	rates unsafe.Pointer
}

// Validate reports structural problems with the video description.
func (v *Video) Validate() error {
	if v.ID == "" {
		return fmt.Errorf("media: video has empty ID")
	}
	if v.Duration <= 0 || v.ChunkDuration <= 0 {
		return fmt.Errorf("media: video %q has non-positive duration or chunk duration", v.ID)
	}
	if err := v.Grid.Validate(); err != nil {
		return fmt.Errorf("media: video %q: %w", v.ID, err)
	}
	if len(v.Ladder) == 0 {
		return fmt.Errorf("media: video %q has empty ladder", v.ID)
	}
	for i := 1; i < len(v.Ladder); i++ {
		if v.Ladder[i].Bitrate <= v.Ladder[i-1].Bitrate {
			return fmt.Errorf("media: video %q ladder not strictly increasing at level %d", v.ID, i)
		}
	}
	return nil
}

// Qualities returns the number of ladder rungs.
func (v *Video) Qualities() int { return len(v.Ladder) }

// NumChunks returns how many chunk intervals the video spans (the last
// may be partial). The ceiling is taken in integers, so it is exact for
// every Duration, not only for those a float64 holds exactly.
func (v *Video) NumChunks() int {
	if v.ChunkDuration <= 0 {
		return 0
	}
	n := v.Duration / v.ChunkDuration
	if v.Duration%v.ChunkDuration > 0 {
		n++
	}
	return int(n)
}

// ChunkStart returns the start time of chunk interval i.
func (v *Video) ChunkStart(i int) time.Duration {
	return time.Duration(i) * v.ChunkDuration
}

// fnv64 is an incremental FNV-1a fold with typed mixers, the source of
// all per-video "content" randomness. It runs once per tile and once per
// chunk interval, when a video's rateModel is built (and for the rare
// factor past what the model keeps), not on every size asked; the typed
// methods (rather than a variadic ...any signature) keep even that free
// of interface boxing. Each part is folded byte-wise and terminated with
// a 0xff sentinel so "ab","c" and "a","bc" hash differently.
type fnv64 uint64

func newFNV64() fnv64 { return 14695981039346656037 }

func (h fnv64) mix(b byte) fnv64 { return (h ^ fnv64(b)) * 1099511628211 }

func (h fnv64) str(s string) fnv64 {
	for i := 0; i < len(s); i++ {
		h = h.mix(s[i])
	}
	return h.mix(0xff)
}

func (h fnv64) num(x int64) fnv64 {
	for i := 0; i < 8; i++ {
		h = h.mix(byte(uint64(x) >> (8 * i)))
	}
	return h.mix(0xff)
}

// unit maps a hash to [0,1).
func unit(h uint64) float64 { return float64(h>>11) / float64(1<<53) }

// tileComplexity returns the relative coding complexity of a tile in
// [0.6, 1.4], mean ≈ 1 across tiles. Sky tiles compress better than
// action tiles; the exact map is a deterministic function of the video
// ID so experiments are reproducible.
func (v *Video) tileComplexity(tile tiling.TileID) float64 {
	return 0.6 + 0.8*unit(uint64(newFNV64().str(v.ID).str("tile").num(int64(tile))))
}

// chunkVariation is the temporal size variation of a chunk interval in
// [0.8, 1.2] (scene activity varies over time).
func (v *Video) chunkVariation(idx int) float64 {
	return 0.8 + 0.4*unit(uint64(newFNV64().str(v.ID).str("time").num(int64(idx))))
}

// maxKept bounds each of a rateModel's tables. A factor past it (a grid
// of more tiles, a video of more intervals) is hashed when asked.
const maxKept = 4096

// rateModel keeps a video's size factors: tileComplexity of each tile
// and chunkVariation of each chunk interval, hashed once and read on
// every size asked after. It records the fields it was built from, and
// a video whose fields no longer match builds a new one.
type rateModel struct {
	id                      string
	grid                    tiling.Grid
	duration, chunkDuration time.Duration
	tiles, chunks           []float64
}

// model returns v's rateModel, building it on first use. Goroutines
// that race on a first use each build the same factors; the last store
// wins and every reader sees a whole model.
func (v *Video) model() *rateModel {
	m := (*rateModel)(atomic.LoadPointer(&v.rates))
	if m != nil && m.id == v.ID && m.grid == v.Grid && m.duration == v.Duration && m.chunkDuration == v.ChunkDuration {
		return m
	}
	tiles := min(max(v.Grid.Tiles(), 0), maxKept)
	f := make([]float64, tiles+min(max(v.NumChunks(), 0), maxKept))
	m = &rateModel{id: v.ID, grid: v.Grid, duration: v.Duration, chunkDuration: v.ChunkDuration,
		tiles: f[:tiles:tiles], chunks: f[tiles:]}
	for i := range m.tiles {
		m.tiles[i] = v.tileComplexity(tiling.TileID(i))
	}
	for i := range m.chunks {
		m.chunks[i] = v.chunkVariation(i)
	}
	atomic.StorePointer(&v.rates, unsafe.Pointer(m))
	return m
}

// ChunkBytes returns the size in bytes of chunk C(q, l, t) under
// single-layer (AVC) coding: the tile's share of the full-panorama rate
// at quality q, over one chunk duration, scaled by the tile's complexity
// and the interval's activity.
func (v *Video) ChunkBytes(q int, tile tiling.TileID, start time.Duration) int64 {
	return v.chunkBytes(v.model(), q, tile, start)
}

// chunkBytes is ChunkBytes over the factors m keeps: the one size
// formula every size of the video goes through.
func (v *Video) chunkBytes(m *rateModel, q int, tile tiling.TileID, start time.Duration) int64 {
	if q < 0 || q >= len(v.Ladder) || !v.Grid.Valid(tile) {
		return 0
	}
	dur := v.chunkDurAt(start)
	if dur <= 0 {
		return 0
	}
	mean := float64(v.Ladder[q].Bitrate) * dur.Seconds() / 8 / float64(v.Grid.Tiles())
	idx := int(start / v.ChunkDuration)
	var complexity, variation float64
	if int(tile) < len(m.tiles) {
		complexity = m.tiles[tile]
	} else {
		complexity = v.tileComplexity(tile)
	}
	if idx < len(m.chunks) {
		variation = m.chunks[idx]
	} else {
		variation = v.chunkVariation(idx)
	}
	size := mean * complexity * variation
	if size < 1 {
		size = 1
	}
	return int64(size)
}

// chunkDurAt returns the actual duration of the chunk interval starting
// at start (the final interval may be shorter).
func (v *Video) chunkDurAt(start time.Duration) time.Duration {
	if start < 0 || start >= v.Duration {
		return 0
	}
	if start+v.ChunkDuration > v.Duration {
		return v.Duration - start
	}
	return v.ChunkDuration
}

// LayerBytes returns the size of SVC layer `layer` of the tile-chunk:
// layer 0 is the base layer (the lowest ladder rung), layer i>0 is the
// enhancement from rung i-1 to rung i, inflated by the SVC overhead
// (Fig. 3, right).
func (v *Video) LayerBytes(layer int, tile tiling.TileID, start time.Duration) int64 {
	return v.layerBytes(v.model(), layer, tile, start)
}

func (v *Video) layerBytes(m *rateModel, layer int, tile tiling.TileID, start time.Duration) int64 {
	if layer < 0 || layer >= len(v.Ladder) {
		return 0
	}
	if layer == 0 {
		return v.chunkBytes(m, 0, tile, start)
	}
	delta := v.chunkBytes(m, layer, tile, start) - v.chunkBytes(m, layer-1, tile, start)
	if delta < 0 {
		delta = 0
	}
	return int64(float64(delta) * (1 + svcOverhead))
}

// SpanBytes returns the bytes that carry a tile-chunk's qualities
// from..to, the one byte rule of every fetch. enc is the chunk's own
// encoding, which a hybrid session picks per chunk. A first fetch
// spans 0..q; an upgrade of a copy held at h spans h+1..q.
//
// Under SVC the span is its layers (§3.1.1: "when playing a chunk at
// layer i > 0, the player must have all its layers from 0 to i"), so an
// upgrade costs only the enhancement layers. Under AVC any non-empty
// span is the whole chunk at quality to — the fundamental mismatch
// §3.1.1 identifies.
func (v *Video) SpanBytes(enc Encoding, from, to int, tile tiling.TileID, start time.Duration) int64 {
	if to < from {
		return 0
	}
	m := v.model()
	if enc != EncodingSVC {
		return v.chunkBytes(m, to, tile, start)
	}
	var sum int64
	for l := from; l <= to && l < len(v.Ladder); l++ {
		sum += v.layerBytes(m, l, tile, start)
	}
	return sum
}

// TotalBytes returns the stored size of the entire video at every
// quality (the server-side footprint of the tiling approach, Fig. 2).
func (v *Video) TotalBytes() int64 {
	var sum int64
	for i := 0; i < v.NumChunks(); i++ {
		start := v.ChunkStart(i)
		for tile := tiling.TileID(0); int(tile) < v.Grid.Tiles(); tile++ {
			for q := 0; q < len(v.Ladder); q++ {
				if v.Encoding == EncodingSVC {
					sum += v.LayerBytes(q, tile, start)
				} else {
					sum += v.ChunkBytes(q, tile, start)
				}
			}
		}
	}
	return sum
}

// PanoramaBytes returns the size of the whole panorama at quality q for
// one chunk interval — what a FoV-agnostic player downloads per interval
// (§2 "Related Work").
func (v *Video) PanoramaBytes(q int, start time.Duration) int64 {
	var sum int64
	for tile := tiling.TileID(0); int(tile) < v.Grid.Tiles(); tile++ {
		sum += v.ChunkBytes(q, tile, start)
	}
	return sum
}
