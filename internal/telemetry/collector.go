package telemetry

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"sync"
	"time"

	"sperke/internal/hmp"
	"sperke/internal/sphere"
	"sperke/internal/tiling"
	"sperke/internal/trace"
)

// Collector is the §3.2 aggregation service: players POST telemetry
// records, and clients GET per-video crowd heatmaps to guide OOS
// selection and long-horizon prediction.
//
//	POST /t/{video}                      body: one encoded Record
//	GET  /t/{video}/heatmap?chunkms=2000 response: JSON tile probabilities,
//	                                     400 past maxHeatmapProbes
//	GET  /t/{video}/stats                response: JSON session count etc.
//
// Safe for concurrent use.
type Collector struct {
	// Grid and FoV define the tile geometry heatmaps are computed over.
	Grid tiling.Grid
	FoV  sphere.FoV
	// MaxSessionsPerVideo bounds memory; oldest sessions are dropped
	// first. 0 defaults to 1000.
	MaxSessionsPerVideo int

	mu     sync.RWMutex
	traces map[string][]*trace.HeadTrace
	users  map[string]map[string]bool
	mux    *http.ServeMux
	once   sync.Once
}

// NewCollector builds a collector with the given geometry.
func NewCollector(g tiling.Grid, fov sphere.FoV) *Collector {
	return &Collector{
		Grid:   g,
		FoV:    fov,
		traces: make(map[string][]*trace.HeadTrace),
		users:  make(map[string]map[string]bool),
	}
}

func (c *Collector) maxSessions() int {
	if c.MaxSessionsPerVideo <= 0 {
		return 1000
	}
	return c.MaxSessionsPerVideo
}

// ingest stores one record (the non-HTTP entry point).
func (c *Collector) ingest(rec *Record) error {
	if rec == nil || rec.VideoID == "" {
		return fmt.Errorf("telemetry: nil or unidentified record")
	}
	if len(rec.Samples) == 0 {
		return fmt.Errorf("telemetry: record has no samples")
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	ts := c.traces[rec.VideoID]
	ts = append(ts, rec.headTrace())
	if over := len(ts) - c.maxSessions(); over > 0 {
		ts = ts[over:]
	}
	c.traces[rec.VideoID] = ts
	if c.users[rec.VideoID] == nil {
		c.users[rec.VideoID] = make(map[string]bool)
	}
	c.users[rec.VideoID][rec.UserID] = true
	return nil
}

// sessions returns the stored session count for a video.
func (c *Collector) sessions(videoID string) int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return len(c.traces[videoID])
}

// maxHeatmapProbes bounds the viewport queries one heatmap may cost:
// intervals × stored sessions × hmp.Probes. On a 2-core box a GET at the
// cap took 7.2 s of CPU with every view aimed at a tile corner, the
// costliest view (a ninth of its lattice takes the exact expression);
// before the cap a thousand hour-long sessions at chunkms=20 would have
// cost about two CPU-hours. A full store of a thousand sessions is
// served up to 262 intervals: a ten-minute video at chunkms=2300.
const maxHeatmapProbes = 1 << 20

// errTooManyProbes is heatmapInput's refusal of a heatmap over the cap.
var errTooManyProbes = errors.New("telemetry: heatmap exceeds the probe cap")

// heatmap aggregates the stored sessions of a video into a crowd
// heatmap over the given chunking, or returns heatmapInput's error.
func (c *Collector) heatmap(videoID string, chunkDur, videoDur time.Duration) (*hmp.Heatmap, error) {
	sessions, videoDur, err := c.heatmapInput(videoID, chunkDur, videoDur)
	if err != nil {
		return nil, err
	}
	return hmp.BuildHeatmap(tiling.NewViewport(c.Grid, c.FoV), chunkDur, videoDur, sessions), nil
}

// heatmapInput returns the stored sessions of a video and the span a
// heatmap of them covers: videoDur, or the longest session when
// videoDur ≤ 0. It refuses, before anything is built, a video with no
// sessions and a heatmap of more than maxHeatmapProbes queries.
func (c *Collector) heatmapInput(videoID string, chunkDur, videoDur time.Duration) ([]*trace.HeadTrace, time.Duration, error) {
	c.mu.RLock()
	sessions := append([]*trace.HeadTrace(nil), c.traces[videoID]...)
	c.mu.RUnlock()
	if len(sessions) == 0 {
		return nil, 0, fmt.Errorf("telemetry: no sessions for video %q", videoID)
	}
	if videoDur <= 0 {
		for _, s := range sessions {
			if d := s.Duration(); d > videoDur {
				videoDur = d
			}
		}
	}
	intervals := int64((videoDur + chunkDur - 1) / chunkDur)
	if probes := intervals * int64(len(sessions)) * hmp.Probes; probes > maxHeatmapProbes {
		return nil, 0, fmt.Errorf("%w: %d intervals × %d sessions × %d probes = %d, cap %d; raise chunkms",
			errTooManyProbes, intervals, len(sessions), hmp.Probes, probes, maxHeatmapProbes)
	}
	return sessions, videoDur, nil
}

func (c *Collector) init() {
	c.mux = http.NewServeMux()
	c.mux.HandleFunc("POST /t/{video}", c.handleIngest)
	c.mux.HandleFunc("GET /t/{video}/heatmap", c.handleHeatmap)
	c.mux.HandleFunc("GET /t/{video}/stats", c.handleStats)
}

// ServeHTTP implements http.Handler.
func (c *Collector) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	c.once.Do(c.init)
	c.mux.ServeHTTP(w, r)
}

func (c *Collector) handleIngest(w http.ResponseWriter, r *http.Request) {
	rec, err := Decode(http.MaxBytesReader(w, r.Body, 8<<20))
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	if rec.VideoID != r.PathValue("video") {
		http.Error(w, "telemetry: record/path video mismatch", http.StatusBadRequest)
		return
	}
	if err := c.ingest(rec); err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	w.WriteHeader(http.StatusAccepted)
}

// HeatmapResponse is the JSON shape of the heatmap endpoint.
type HeatmapResponse struct {
	VideoID   string `json:"videoId"`
	Sessions  int    `json:"sessions"`
	ChunkMs   int64  `json:"chunkMs"`
	Rows      int    `json:"rows"`
	Cols      int    `json:"cols"`
	Intervals int    `json:"intervals"`
	// Prob[i][tile] is the viewing probability of a tile in interval i.
	Prob [][]float64 `json:"prob"`
}

// The heatmap's interval, in milliseconds, runs from one sample period
// to the longest span a record may cover. With Decode's bound on that
// span, no heatmap has more than maxSamples intervals.
const (
	minChunkMs = int64(time.Second / trace.SampleRate / time.Millisecond)
	maxChunkMs = int64(maxSpan / time.Millisecond)
)

// handleHeatmap answers a heatmap at chunkms (default 2000): 404 for a
// video with no sessions, 400 for chunkms outside minChunkMs..maxChunkMs
// or a heatmap of more than maxHeatmapProbes viewport queries, which is
// refused before it is built.
func (c *Collector) handleHeatmap(w http.ResponseWriter, r *http.Request) {
	videoID := r.PathValue("video")
	chunkMs := int64(2000)
	if q := r.URL.Query().Get("chunkms"); q != "" {
		v, err := strconv.ParseInt(q, 10, 64)
		if err != nil || v < minChunkMs || v > maxChunkMs {
			http.Error(w, fmt.Sprintf("telemetry: chunkms must be %d to %d", minChunkMs, maxChunkMs), http.StatusBadRequest)
			return
		}
		chunkMs = v
	}
	heat, err := c.heatmap(videoID, time.Duration(chunkMs)*time.Millisecond, 0)
	if err != nil {
		status := http.StatusNotFound
		if errors.Is(err, errTooManyProbes) {
			status = http.StatusBadRequest
		}
		http.Error(w, err.Error(), status)
		return
	}
	resp := HeatmapResponse{
		VideoID:   videoID,
		Sessions:  c.sessions(videoID),
		ChunkMs:   chunkMs,
		Rows:      c.Grid.Rows,
		Cols:      c.Grid.Cols,
		Intervals: heat.Intervals(),
		Prob:      make([][]float64, heat.Intervals()),
	}
	for i := range resp.Prob {
		row := make([]float64, c.Grid.Tiles())
		at := time.Duration(i) * time.Duration(chunkMs) * time.Millisecond
		for tile := range row {
			row[tile] = heat.Probability(at, tiling.TileID(tile))
		}
		resp.Prob[i] = row
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(resp)
}

func (c *Collector) handleStats(w http.ResponseWriter, r *http.Request) {
	videoID := r.PathValue("video")
	c.mu.RLock()
	stats := map[string]int{
		"sessions": len(c.traces[videoID]),
		"users":    len(c.users[videoID]),
	}
	c.mu.RUnlock()
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(stats)
}
