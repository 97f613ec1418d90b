package abr

import (
	"time"

	"sperke/internal/hmp"
	"sperke/internal/media"
	"sperke/internal/tiling"
)

// SuperChunk is §3.1.2 part one's unit: "the minimum number of chunks
// that fully cover the corresponding FoV", all fetched at one quality
// so the view looks uniform. Regular VRA algorithms operate on the
// sequence of super chunks exactly as they would on a conventional
// video's chunks.
type SuperChunk struct {
	// Interval is the temporal chunk index; Start its media time.
	Interval int
	Start    time.Duration
	// Tiles is the covering tile set for the predicted FoV.
	Tiles []tiling.TileID
	// Prediction is the HMP output the cover was computed from; its
	// radius drives the surrounding OOS plan (part two).
	Prediction hmp.Prediction
}

// BuildSuperChunk covers the predicted FoV for one interval. The cover
// is appended to tiles[:0], which the super chunk then owns: a caller
// planning interval after interval hands back the last one's Tiles and
// nothing is allocated; nil gets a fresh set.
func BuildSuperChunk(vp tiling.Viewport, pred hmp.Prediction, interval int, chunkDur time.Duration, tiles []tiling.TileID) SuperChunk {
	return SuperChunk{
		Interval:   interval,
		Start:      time.Duration(interval) * chunkDur,
		Tiles:      vp.AppendVisible(tiles[:0], pred.View),
		Prediction: pred,
	}
}

// SizeAt returns the fetch bytes of the super chunk at quality q for a
// video — the SizeAt function VRA contexts consume.
func (sc SuperChunk) SizeAt(v *media.Video, q int) int64 {
	var sum int64
	for _, id := range sc.Tiles {
		sum += v.SpanBytes(v.Encoding, 0, q, id, sc.Start)
	}
	return sum
}
