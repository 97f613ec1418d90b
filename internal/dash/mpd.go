// Package dash implements the HTTP adaptive-streaming substrate Sperke
// rides on (§2, §3.4.1): a simplified MPEG-DASH [38] Media Presentation
// Description extended with the tiling attributes FoV-guided streaming
// needs, an HTTP segment server organized as Fig. 2 (quality → tile →
// chunk), and a fetch client that measures per-transfer throughput for
// rate adaptation.
//
// Every manifest the server renders is static: the whole video is
// addressable from the first fetch. The download side of a live
// broadcast (§3.4.1), where viewers re-fetch a dynamic MPD to learn of
// new chunks, is modeled by internal/live rather than served here.
package dash

import (
	"encoding/xml"
	"fmt"

	"sperke/internal/media"
	"sperke/internal/tiling"
)

// MPD is the manifest describing one tiled 360° video.
type MPD struct {
	XMLName xml.Name `xml:"MPD"`
	// Type is "static", the only type the server renders; a fetched
	// manifest may also be "dynamic" (DASH's live type).
	Type    string `xml:"type,attr"`
	VideoID string `xml:"videoId,attr"`
	// DurationMs is the media duration.
	DurationMs int64 `xml:"mediaPresentationDurationMs,attr"`
	// ChunkMs is the chunk duration in milliseconds.
	ChunkMs int64 `xml:"chunkDurationMs,attr"`
	// Tiling geometry.
	Rows int `xml:"tileRows,attr"`
	Cols int `xml:"tileCols,attr"`
	// Projection is the video's ProjectionName, an informational label:
	// tiles are always equirectangular.
	Projection string `xml:"projection,attr"`
	// Encoding is "AVC" or "SVC" (§3.1.1).
	Encoding string `xml:"encoding,attr"`

	Representations []representation `xml:"Representation"`
}

// representation is one quality level of the ladder.
type representation struct {
	ID int `xml:"id,attr"`
	// Name is the human label ("720p").
	Name   string `xml:"name,attr"`
	Width  int    `xml:"width,attr"`
	Height int    `xml:"height,attr"`
	// Bandwidth is the full-panorama rate in bits/s.
	Bandwidth int64 `xml:"bandwidth,attr"`
}

// buildMPD renders a video's manifest.
func buildMPD(v *media.Video) *MPD {
	m := &MPD{
		Type:       "static",
		VideoID:    v.ID,
		DurationMs: v.Duration.Milliseconds(),
		ChunkMs:    v.ChunkDuration.Milliseconds(),
		Rows:       v.Grid.Rows,
		Cols:       v.Grid.Cols,
		Projection: v.ProjectionName,
		Encoding:   v.Encoding.String(),
	}
	for i, q := range v.Ladder {
		m.Representations = append(m.Representations, representation{
			ID: i, Name: q.Name, Width: q.Width, Height: q.Height,
			Bandwidth: int64(q.Bitrate),
		})
	}
	return m
}

// marshal renders the MPD as XML.
func (m *MPD) marshal() ([]byte, error) {
	out, err := xml.MarshalIndent(m, "", "  ")
	if err != nil {
		return nil, err
	}
	return append([]byte(xml.Header), out...), nil
}

// parseMPD decodes a manifest and validates its basic invariants.
func parseMPD(data []byte) (*MPD, error) {
	var m MPD
	if err := xml.Unmarshal(data, &m); err != nil {
		return nil, fmt.Errorf("dash: parsing MPD: %w", err)
	}
	if m.VideoID == "" {
		return nil, fmt.Errorf("dash: MPD missing videoId")
	}
	if m.ChunkMs <= 0 {
		return nil, fmt.Errorf("dash: MPD chunk duration %dms", m.ChunkMs)
	}
	if m.Rows < 1 || m.Cols < 1 {
		return nil, fmt.Errorf("dash: MPD tile grid %dx%d", m.Rows, m.Cols)
	}
	if len(m.Representations) == 0 {
		return nil, fmt.Errorf("dash: MPD has no representations")
	}
	if m.Type != "static" && m.Type != "dynamic" {
		return nil, fmt.Errorf("dash: MPD type %q", m.Type)
	}
	return &m, nil
}

// Grid returns the manifest's tile grid.
func (m *MPD) Grid() tiling.Grid { return tiling.Grid{Rows: m.Rows, Cols: m.Cols} }

// NumChunks returns the number of chunk intervals described.
func (m *MPD) NumChunks() int {
	if m.ChunkMs <= 0 {
		return 0
	}
	n := m.DurationMs / m.ChunkMs
	if m.DurationMs%m.ChunkMs != 0 {
		n++
	}
	return int(n)
}
