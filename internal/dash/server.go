package dash

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/url"
	"sort"
	"strconv"
	"sync"
	"time"

	"sperke/internal/media"
	"sperke/internal/obs"
	"sperke/internal/tiling"
)

// Catalog is the server-side content store of Fig. 2: videos organized
// as qualities × tiles × chunks. Safe for concurrent use.
type Catalog struct {
	mu     sync.RWMutex
	videos map[string]*media.Video
	// live windows: videoID → [first, last] available chunk index.
	windows map[string][2]int
}

// NewCatalog returns an empty catalog.
func NewCatalog() *Catalog {
	return &Catalog{
		videos:  make(map[string]*media.Video),
		windows: make(map[string][2]int),
	}
}

// Add registers a video. It returns an error for invalid videos,
// duplicate IDs, and IDs no client could fetch under: "." and "..",
// which URL path cleaning removes however they are escaped, and IDs
// longer than a segment header can carry.
func (c *Catalog) Add(v *media.Video) error {
	if err := v.Validate(); err != nil {
		return err
	}
	if v.ID == "." || v.ID == ".." || len(v.ID) > media.MaxVideoIDLen {
		return fmt.Errorf("dash: video ID %q cannot be served (a dot segment, or longer than %d bytes)", v.ID, media.MaxVideoIDLen)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.videos[v.ID]; ok {
		return fmt.Errorf("dash: video %q already in catalog", v.ID)
	}
	c.videos[v.ID] = v
	return nil
}

// IDs returns the catalog's video IDs in sorted order.
func (c *Catalog) IDs() []string {
	c.mu.RLock()
	defer c.mu.RUnlock()
	out := make([]string, 0, len(c.videos))
	for id := range c.videos {
		out = append(out, id)
	}
	sort.Strings(out)
	return out
}

// Get returns a video by ID.
func (c *Catalog) Get(id string) (*media.Video, bool) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	v, ok := c.videos[id]
	return v, ok
}

// SetLiveWindow marks a video live with the given available chunk
// range; the MPD turns dynamic.
func (c *Catalog) SetLiveWindow(id string, first, last int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.windows[id] = [2]int{first, last}
}

// liveWindow returns the live window if the video is live.
func (c *Catalog) liveWindow(id string) ([2]int, bool) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	w, ok := c.windows[id]
	return w, ok
}

// The limits every listener in the tree serves under: NewHTTPServer's,
// and the wire cluster's edge connection loop's. A client that has not
// finished its request headers five seconds after connecting is not one
// of ours (a request is one small packet); an idle connection is kept
// longer than any client in the tree keeps its end (net/http's default
// transport 90 s, the benchmark's one minute), so it is always the
// client that retires a connection and never a server that closes one a
// client is about to reuse.
const (
	ReadHeaderTimeout = 5 * time.Second
	IdleTimeout       = 2 * time.Minute
)

// NewHTTPServer returns the http.Server every listener in the tree
// serves h on, but a wire cluster's edges, which run their own
// connection loop under the same two limits: net/http's zero value
// waits forever for a request's headers and for the next request on a
// kept-alive connection, so a peer that connects and goes quiet holds a
// goroutine and a descriptor until the process exits. The caller sets
// Addr if it listens by name, and owns Serve, Shutdown and Close.
func NewHTTPServer(h http.Handler) *http.Server {
	return &http.Server{Handler: h, ReadHeaderTimeout: ReadHeaderTimeout, IdleTimeout: IdleTimeout}
}

// ChunkSource serves pre-built chunk bodies. The sharded, singleflight
// chunk store of internal/serve implements it; a Server with a source
// configured (WithStore) serves bodies from it instead of
// re-synthesizing every request. Implementations must return the exact
// bytes BuildChunkBody would produce for the same address.
type ChunkSource interface {
	Chunk(ctx context.Context, videoID string, quality, tile, index int, layer bool) ([]byte, error)
}

// ChunkStreamer is the streaming counterpart of ChunkSource: instead
// of returning a materialized body it writes the chunk straight into
// the caller's ResponseWriter, setting Content-Type and Content-Length
// itself before the first byte when it knows the length. The wire
// cluster's router implements it to proxy edge responses without
// buffering them. A Server whose source also implements ChunkStreamer
// serves chunk bodies through this path; it reports the bytes written
// so the server can tell a clean failure (nothing sent, map the error
// to a status) from a poisoned response (bytes on the wire, abandon). A
// write to w that fails is returned wrapping ErrViewerGone, so the
// server abandons that response too.
type ChunkStreamer interface {
	StreamChunk(ctx context.Context, w http.ResponseWriter, videoID string, quality, tile, index int, layer bool) (int64, error)
}

// Server serves manifests and segments over HTTP:
//
//	GET /v/{video}/manifest.mpd
//	GET /v/{video}/c/{quality}/{tile}/{index}          (AVC chunk)
//	GET /v/{video}/c/{quality}/{tile}/{index}?layer=1  (one SVC layer)
//
// Segment bodies are the binary container of package media with
// deterministic synthetic payloads sized by the video's rate model.
type Server struct {
	catalog *Catalog
	log     *slog.Logger
	// store serves chunk bodies from a cache; nil synthesizes each
	// request's body straight into its response.
	store ChunkSource
	mux   *http.ServeMux
	// met holds the dash.server.* instruments: request counts, response
	// bytes, error counts and a per-request latency histogram. Without a
	// registry its fields are nil and no-op.
	met serverMetrics
}

// ServerOption configures a Server at construction.
type ServerOption func(*Server)

// WithLogger sets the server's logger; nil is ignored.
func WithLogger(log *slog.Logger) ServerOption {
	return func(s *Server) {
		if log != nil {
			s.log = log
		}
	}
}

// WithObs wires the server's request metrics into a registry.
func WithObs(r *obs.Registry) ServerOption {
	return func(s *Server) {
		s.met = serverMetrics{
			requests:  r.Counter("dash.server.requests"),
			mpd:       r.Counter("dash.server.mpd_requests"),
			chunks:    r.Counter("dash.server.chunk_requests"),
			errors:    r.Counter("dash.server.errors"),
			canceled:  r.Counter("dash.server.canceled"),
			bytesTx:   r.Counter("dash.server.bytes_tx"),
			requestMS: r.Histogram("dash.server.request_ms"),
		}
		if r != nil {
			s.met.wall = obs.NewWall()
		}
	}
}

// WithStore serves chunk bodies through a ChunkSource — typically the
// sharded cache of internal/serve — instead of synthesizing per
// request.
func WithStore(src ChunkSource) ServerOption {
	return func(s *Server) { s.store = src }
}

// serverMetrics caches the server's instruments; nil fields no-op.
type serverMetrics struct {
	requests  *obs.Counter
	mpd       *obs.Counter
	chunks    *obs.Counter
	errors    *obs.Counter
	canceled  *obs.Counter
	bytesTx   *obs.Counter
	requestMS *obs.Histogram
	wall      *obs.Wall
}

// countingWriter captures status and body bytes for metrics. A handler
// that returns early because the client went away marks the writer
// aborted instead of writing a status — otherwise the default 200
// would count a request nobody received as a success.
type countingWriter struct {
	http.ResponseWriter
	status  int
	bytes   int64
	aborted bool
}

func (w *countingWriter) WriteHeader(status int) {
	w.status = status
	w.ResponseWriter.WriteHeader(status)
}

func (w *countingWriter) Write(p []byte) (int, error) {
	n, err := w.ResponseWriter.Write(p)
	w.bytes += int64(n)
	return n, err
}

// Flush passes http.Flusher through to the wrapped writer, so the
// streaming chunk path can push blocks to a live viewer mid-body.
func (w *countingWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// markAborted records a client-side abort on w when it is a metrics
// wrapper; on a bare ResponseWriter there is nothing to record.
func markAborted(w http.ResponseWriter) {
	if cw, ok := w.(*countingWriter); ok {
		cw.aborted = true
	}
}

// NewServer builds a server over a catalog. Options (WithLogger,
// WithObs, WithStore) configure the optional hooks.
func NewServer(catalog *Catalog, opts ...ServerOption) *Server {
	s := &Server{catalog: catalog, log: slog.Default(), mux: http.NewServeMux()}
	s.mux.HandleFunc("GET /v", s.handleList)
	s.mux.HandleFunc("GET /v/{video}/manifest.mpd", s.handleMPD)
	s.mux.HandleFunc("GET /v/{video}/c/{quality}/{tile}/{index}", s.handleChunk)
	for _, opt := range opts {
		opt(s)
	}
	return s
}

// handleList returns the catalog's video IDs, one per line.
func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	for _, id := range s.catalog.IDs() {
		fmt.Fprintln(w, id)
	}
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if s.met.wall == nil {
		s.mux.ServeHTTP(w, r)
		return
	}
	start := s.met.wall.Now()
	cw := &countingWriter{ResponseWriter: w, status: http.StatusOK}
	s.mux.ServeHTTP(cw, r)
	s.met.requests.Inc()
	s.met.bytesTx.Add(cw.bytes)
	switch {
	case cw.aborted:
		// The client canceled mid-request: neither a success nor a server
		// error (the 499 class nginx coined).
		s.met.canceled.Inc()
	case cw.status >= 400:
		s.met.errors.Inc()
	}
	s.met.requestMS.Observe(float64(s.met.wall.Now()-start) / float64(time.Millisecond))
}

func (s *Server) handleMPD(w http.ResponseWriter, r *http.Request) {
	s.met.mpd.Inc()
	v, ok := s.catalog.Get(r.PathValue("video"))
	if !ok {
		http.NotFound(w, r)
		return
	}
	win, live := s.catalog.liveWindow(v.ID)
	mpd := BuildMPD(v, live, win[0], win[1])
	if live {
		// A live manifest's duration reflects what has been produced.
		mpd.DurationMs = int64(win[1]+1) * v.ChunkDuration.Milliseconds()
	}
	out, err := mpd.Marshal()
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/dash+xml")
	w.Write(out)
}

// octetStream is every chunk body's Content-Type header value, shared
// and never written to: a Header.Set would allocate a one-string slice
// a response.
var octetStream = []string{"application/octet-stream"}

// SetOctetStream declares the body of a response with headers h to be a
// chunk's bytes, without allocating.
func SetOctetStream(h http.Header) { h["Content-Type"] = octetStream }

func (s *Server) handleChunk(w http.ResponseWriter, r *http.Request) {
	s.met.chunks.Inc()
	v, ok := s.catalog.Get(r.PathValue("video"))
	if !ok {
		http.NotFound(w, r)
		return
	}
	q, err1 := strconv.Atoi(r.PathValue("quality"))
	tile, err2 := strconv.Atoi(r.PathValue("tile"))
	idx, err3 := strconv.Atoi(r.PathValue("index"))
	if err1 != nil || err2 != nil || err3 != nil {
		http.Error(w, "dash: bad chunk address", http.StatusBadRequest)
		return
	}
	if q < 0 || q >= v.Qualities() || !v.Grid.Valid(tiling.TileID(tile)) || idx < 0 || idx >= v.NumChunks() {
		http.Error(w, "dash: chunk out of range", http.StatusNotFound)
		return
	}
	if win, live := s.catalog.liveWindow(v.ID); live && (idx < win[0] || idx > win[1]) {
		http.Error(w, "dash: chunk outside live window", http.StatusNotFound)
		return
	}
	isLayer := false
	if r.URL.RawQuery != "" {
		isLayer = r.URL.Query().Get("layer") == "1"
	}
	if isLayer && v.Encoding != media.EncodingSVC {
		http.Error(w, "dash: video is not SVC encoded", http.StatusBadRequest)
		return
	}
	h, seed, size, err := chunkSpec(v, q, tile, idx, isLayer)
	if err != nil {
		// The address is in range and the encoding matches, so all that
		// is left to fail is a size model with nothing at this address.
		http.Error(w, err.Error(), http.StatusNotFound)
		return
	}
	if s.store == nil || r.Method == http.MethodHead {
		// Content-Length comes from the size model. It is all a HEAD
		// gets — the mux matches one to the GET pattern, and net/http
		// discards what its handler writes, so nothing is synthesized,
		// missed into the store or fetched over an edge hop for it.
		SetOctetStream(w.Header())
		w.Header().Set("Content-Length", strconv.Itoa(media.SegmentLen(h.VideoID, int(size))))
		if r.Method == http.MethodHead {
			return
		}
		// Writer-first store-less path: the body streams block by block
		// straight into the response writer — no body-sized buffer
		// anywhere.
		if err := media.WriteSyntheticSegment(w, h, seed, int(size)); err != nil {
			// The spec was fully validated above, so a failure here is
			// the client hanging up mid-stream.
			markAborted(w)
			s.log.Debug("dash: segment write aborted", "video", v.ID, "err", err)
		}
		return
	}
	if st, ok := s.store.(ChunkStreamer); ok {
		// Streaming source: the body flows straight from the source into
		// the response writer — nothing is materialized here. Once bytes
		// are on the wire (or the client has left, or its writer failed)
		// a failure can only be abandoned, not repaired into an error
		// status.
		n, err := st.StreamChunk(r.Context(), w, v.ID, q, tile, idx, isLayer)
		if err != nil {
			if n > 0 || r.Context().Err() != nil || errors.Is(err, ErrViewerGone) {
				markAborted(w)
				s.log.Debug("dash: streamed chunk aborted", "video", v.ID, "err", err)
				return
			}
			// The streamer may have promised a length before its source
			// failed; an error body under a stale Content-Length would
			// truncate or pad on the wire.
			w.Header().Del("Content-Length")
			s.writeChunkError(w, r, v.ID, err)
		}
		return
	}
	body, err := s.store.Chunk(r.Context(), v.ID, q, tile, idx, isLayer)
	if err != nil {
		s.writeChunkError(w, r, v.ID, err)
		return
	}
	SetOctetStream(w.Header())
	w.Header().Set("Content-Length", strconv.Itoa(len(body)))
	if _, err := w.Write(body); err != nil {
		markAborted(w)
		s.log.Debug("dash: segment write aborted", "video", v.ID, "err", err)
	}
}

// writeChunkError maps a chunk-source failure onto the wire: a caller
// that went away is an abort (nobody left to answer), an overload shed
// is 503 with the Retry-After hint so a resilient client backs off
// instead of hammering, unavailability is a plain 503, and anything
// else a 500.
func (s *Server) writeChunkError(w http.ResponseWriter, r *http.Request, videoID string, err error) {
	if r.Context().Err() != nil {
		markAborted(w)
		s.log.Debug("dash: chunk request canceled", "video", videoID, "err", err)
		return
	}
	var oe *OverloadError
	switch {
	case errors.As(err, &oe):
		if secs := retryAfterSeconds(oe.RetryAfter); secs > 0 {
			w.Header().Set("Retry-After", strconv.Itoa(secs))
		}
		http.Error(w, err.Error(), http.StatusServiceUnavailable)
	case errors.Is(err, ErrUnavailable):
		http.Error(w, err.Error(), http.StatusServiceUnavailable)
	default:
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
}

// retryAfterSeconds renders a Retry-After hint in whole seconds,
// rounded up so the client never comes back early (0 means no header).
func retryAfterSeconds(d time.Duration) int {
	if d <= 0 {
		return 0
	}
	return int((d + time.Second - 1) / time.Second)
}

// chunkSpec resolves a chunk address against the video's rate model:
// the segment header, the payload seed and the payload size every
// synthesis entry point shares. One resolver means the streamed, the
// built and the cached forms of a body cannot disagree.
func chunkSpec(v *media.Video, q, tile, idx int, layer bool) (h media.SegmentHeader, seed uint64, size int64, err error) {
	start := v.ChunkStart(idx)
	var flags uint8
	if layer {
		if v.Encoding != media.EncodingSVC {
			return h, 0, 0, fmt.Errorf("dash: video %q is not SVC encoded", v.ID)
		}
		size = v.LayerBytes(q, tiling.TileID(tile), start)
		flags |= media.FlagSVCLayer
	} else {
		size = v.ChunkBytes(q, tiling.TileID(tile), start)
	}
	if size <= 0 {
		return h, 0, 0, fmt.Errorf("dash: empty chunk %s/%d/%d/%d", v.ID, q, tile, idx)
	}
	h = media.SegmentHeader{
		VideoID:  v.ID,
		Quality:  q,
		Flags:    flags,
		Tile:     tiling.TileID(tile),
		Start:    start,
		Duration: v.ChunkDuration,
	}
	seed = uint64(q)<<40 ^ uint64(tile)<<20 ^ uint64(idx) ^ 0x5eed
	if layer {
		// The layer flag must reach the seed: without it an SVC layer at
		// (q,tile,idx) is a byte-prefix of the full chunk at the same
		// address — the seed-collision class PR 5 fixed for adjacent
		// seeds, reintroduced through the address space.
		seed ^= 1 << 63
	}
	return h, seed, size, nil
}

// ChunkBodyLen reports the exact wire length of a chunk body without
// building it — the Content-Length of the streaming path, from
// media.SegmentLen and the size model.
func ChunkBodyLen(v *media.Video, q, tile, idx int, layer bool) (int, error) {
	h, _, size, err := chunkSpec(v, q, tile, idx, layer)
	if err != nil {
		return 0, err
	}
	return media.SegmentLen(h.VideoID, int(size)), nil
}

// WriteChunkBody streams the wire body of one chunk into w with zero
// body materialization: peak scratch is media's fixed block size, not
// the body. This is the one synthesis form; BuildChunkBody runs it into
// a buffer, so streamed, built and cached bodies are byte-identical by
// construction.
func WriteChunkBody(w io.Writer, v *media.Video, q, tile, idx int, layer bool) error {
	h, seed, size, err := chunkSpec(v, q, tile, idx, layer)
	if err != nil {
		return err
	}
	if err := media.WriteSyntheticSegment(w, h, seed, int(size)); err != nil {
		return fmt.Errorf("dash: writing chunk body: %w", err)
	}
	return nil
}

// BuildChunkBody synthesizes the wire body of one chunk — the segment
// container holding a deterministic payload sized by the video's rate
// model — into a fresh exactly-sized slice: WriteChunkBody into a
// buffer. Tests and the benchmark use it as the oracle; the serving
// tiers stream instead.
func BuildChunkBody(v *media.Video, q, tile, idx int, layer bool) ([]byte, error) {
	n, err := ChunkBodyLen(v, q, tile, idx, layer)
	if err != nil {
		return nil, err
	}
	buf := bytes.NewBuffer(make([]byte, 0, n))
	if err := WriteChunkBody(buf, v, q, tile, idx, layer); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// chunkPath renders the URL path of a chunk. The ID travels as one
// escaped path segment — a slash, percent, question mark or hash in it
// is part of the name, not of the URL — which the server's mux turns
// back into the ID.
func chunkPath(videoID string, q, tile, idx int, layer bool) string {
	b := make([]byte, 0, 96)
	b = append(b, "/v/"...)
	b = append(b, url.PathEscape(videoID)...)
	b = append(b, "/c/"...)
	b = strconv.AppendInt(b, int64(q), 10)
	b = append(b, '/')
	b = strconv.AppendInt(b, int64(tile), 10)
	b = append(b, '/')
	b = strconv.AppendInt(b, int64(idx), 10)
	if layer {
		b = append(b, "?layer=1"...)
	}
	return string(b)
}

// mpdPath renders the URL path of a manifest.
func mpdPath(videoID string) string { return "/v/" + url.PathEscape(videoID) + "/manifest.mpd" }
