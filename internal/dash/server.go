package dash

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"sort"
	"strconv"
	"strings"
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
}

// NewCatalog returns an empty catalog.
func NewCatalog() *Catalog {
	return &Catalog{videos: make(map[string]*media.Video)}
}

// Add registers a video. It returns an error for invalid videos,
// duplicate IDs, and IDs no client could fetch under: "." and "..",
// which url.PathEscape leaves bare and dispatch refuses as dot
// segments, and IDs longer than a segment header can carry.
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

// ids returns the catalog's video IDs in sorted order.
func (c *Catalog) ids() []string {
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
// connection loop under the same limits: net/http's zero value waits
// forever for a request's headers, for the next request on a kept-alive
// connection and for a peer to take a response, so a peer that connects
// and goes quiet, or stops reading, holds a goroutine and a descriptor
// until the process exits. A response must be written within
// DefaultTimeout of its request, the bound an edge puts on its own. The
// caller sets Addr if it listens by name, and owns Serve, Shutdown and
// Close.
//
// Shutdown does not drain a pipelined request. net/http marks a
// connection StateActive only when reading the request took bytes off
// the wire (its conn.r.remain moved), so a request a client pipelined
// behind another, already in the connection's buffer, is served while
// the connection stays StateIdle, and Shutdown, which closes idle
// connections, can close it mid-response. The viewer sees a short body
// and retries; a client that sends one request at a time never meets it.
func NewHTTPServer(h http.Handler) *http.Server {
	return &http.Server{Handler: h, ReadHeaderTimeout: ReadHeaderTimeout, IdleTimeout: IdleTimeout, WriteTimeout: DefaultTimeout}
}

// ChunkSource serves pre-built chunk bodies. The sharded, singleflight
// chunk store of internal/serve implements it; a Server with a source
// configured (WithStore) serves bodies from it instead of
// re-synthesizing every request. Implementations must return the exact
// bytes BuildChunkBody would produce for the same address.
type ChunkSource interface {
	Chunk(ctx context.Context, videoID string, quality, tile, index int, layer bool) ([]byte, error)
}

// chunkStreamer is the streaming counterpart of ChunkSource: instead
// of returning a materialized body it writes the chunk straight into
// the caller's ResponseWriter, setting Content-Type and Content-Length
// itself before the first byte when it knows the length. The wire
// cluster's router implements it to proxy edge responses without
// buffering them. A Server whose source also implements chunkStreamer
// serves chunk bodies through this path; it reports the bytes written
// so the server can tell a clean failure (nothing sent, map the error
// to a status) from a poisoned response (bytes on the wire, abandon). A
// write to w that fails is returned wrapping ErrViewerGone, so the
// server abandons that response too.
type chunkStreamer interface {
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
	// store serves chunk bodies from a cache; nil synthesizes each
	// request's body straight into its response.
	store ChunkSource
	// met holds the dash.server.* instruments: request counts, response
	// bytes, error counts and a per-request latency histogram. Without a
	// registry its fields are nil and no-op.
	met serverMetrics
}

// ServerOption configures a Server at construction.
type ServerOption func(*Server)

// WithObs wires the server's request metrics into a registry.
func WithObs(r *obs.Registry) ServerOption {
	return func(s *Server) {
		s.met = serverMetrics{
			requests:  r.Counter("dash.server.requests"),
			list:      r.Counter("dash.server.list_requests"),
			mpd:       r.Counter("dash.server.mpd_requests"),
			chunks:    r.Counter("dash.server.chunk_requests"),
			unrouted:  r.Counter("dash.server.unrouted"),
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
// Every request counts on exactly one of list, mpd, chunks and unrouted
// (dispatch's 404 and 405), so they sum to requests.
type serverMetrics struct {
	requests  *obs.Counter
	list      *obs.Counter
	mpd       *obs.Counter
	chunks    *obs.Counter
	unrouted  *obs.Counter
	errors    *obs.Counter
	canceled  *obs.Counter
	bytesTx   *obs.Counter
	requestMS *obs.Histogram
	wall      *obs.Wall
}

// countingWriter captures status and body bytes for metrics. A handler
// that returns early because the client went away marks the writer
// aborted instead of writing a status — otherwise the default 200
// would count a request nobody received as a success. ServeHTTP takes
// one from countingWriters and puts it back zeroed when it returns, which
// is safe because net/http forbids using a ResponseWriter after then.
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

// ReadFrom passes io.ReaderFrom through to the wrapped writer, so a body
// the cluster's relay hands over from a socket reaches net/http's
// response and, from there, splice(2). A writer without one gets the
// bytes through a pooled block, never io.Copy's fresh 32 KiB buffer.
func (w *countingWriter) ReadFrom(src io.Reader) (n int64, err error) {
	if rf, ok := w.ResponseWriter.(io.ReaderFrom); ok {
		n, err = rf.ReadFrom(src)
	} else {
		pool := obs.Blocks.For(0)
		block := pool.Get()
		n, err = io.CopyBuffer(w.ResponseWriter, src, (*block)[:cap(*block)])
		pool.Put(block)
	}
	w.bytes += n
	return n, err
}

var countingWriters = sync.Pool{New: func() any { return new(countingWriter) }}

// markAborted records a client-side abort on w when it is a metrics
// wrapper; on a bare ResponseWriter there is nothing to record.
func markAborted(w http.ResponseWriter) {
	if cw, ok := w.(*countingWriter); ok {
		cw.aborted = true
	}
}

// NewServer builds a server over a catalog. Options (WithObs,
// WithStore) configure the optional hooks.
func NewServer(catalog *Catalog, opts ...ServerOption) *Server {
	s := &Server{catalog: catalog}
	for _, opt := range opts {
		opt(s)
	}
	return s
}

// routeKind names what dispatch makes of a request.
type routeKind uint8

const (
	routeNotFound routeKind = iota
	routeNotAllowed
	routeList
	routeMPD
	routeChunk
)

// route is a dispatched request: its kind and, for a manifest or a
// chunk, the path's fields decoded. The chunk handler parses quality,
// tile and index itself, after it has looked the video up.
type route struct {
	kind                        routeKind
	video, quality, tile, index string
}

// dispatch routes a request by its method and escaped path onto one of
//
//	/v
//	/v/{video}/manifest.mpd
//	/v/{video}/c/{quality}/{tile}/{index}
//
// Each segment is unescaped on its own (url.PathUnescape, kept as sent
// if it does not parse), the literals too, so an escaped slash is part
// of a video ID and not a separator. A path that is none of the three is
// routeNotFound, and so is one that is not clean: an empty, "." or ".."
// segment. A GET or a HEAD gets its route; any other method on a route
// gets routeNotAllowed.
func dispatch(method, path string) route {
	var seg [6]string
	n := 0
	for rest := path; rest != ""; n++ {
		if rest[0] != '/' || n == len(seg) {
			return route{}
		}
		s := rest[1:]
		if i := strings.IndexByte(s, '/'); i >= 0 {
			s, rest = s[:i], s[i:]
		} else {
			rest = ""
		}
		if s == "" || s == "." || s == ".." {
			return route{}
		}
		if u, err := url.PathUnescape(s); err == nil {
			s = u
		}
		seg[n] = s
	}
	var rt route
	switch {
	case n == 0 || seg[0] != "v":
		return route{}
	case n == 1:
		rt.kind = routeList
	case n == 3 && seg[2] == "manifest.mpd":
		rt = route{kind: routeMPD, video: seg[1]}
	case n == 6 && seg[2] == "c":
		rt = route{kind: routeChunk, video: seg[1], quality: seg[3], tile: seg[4], index: seg[5]}
	default:
		return route{}
	}
	if method != http.MethodGet && method != http.MethodHead {
		return route{kind: routeNotAllowed}
	}
	return rt
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if s.met.wall == nil {
		s.serve(w, r)
		return
	}
	start := s.met.wall.Now()
	cw := countingWriters.Get().(*countingWriter)
	*cw = countingWriter{ResponseWriter: w, status: http.StatusOK}
	s.serve(cw, r)
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
	*cw = countingWriter{}
	countingWriters.Put(cw)
	s.met.requestMS.Observe(float64(s.met.wall.Now()-start) / float64(time.Millisecond))
}

// serve answers r with the handler dispatch picks for it.
func (s *Server) serve(w http.ResponseWriter, r *http.Request) {
	rt := dispatch(r.Method, r.URL.EscapedPath())
	switch rt.kind {
	case routeList:
		s.handleList(w)
	case routeMPD:
		s.handleMPD(w, r, rt.video)
	case routeChunk:
		s.handleChunk(w, r, rt)
	case routeNotAllowed:
		s.met.unrouted.Inc()
		w.Header().Set("Allow", "GET, HEAD")
		http.Error(w, http.StatusText(http.StatusMethodNotAllowed), http.StatusMethodNotAllowed)
	default:
		s.met.unrouted.Inc()
		http.NotFound(w, r)
	}
}

// handleList returns the catalog's video IDs, one per line.
func (s *Server) handleList(w http.ResponseWriter) {
	s.met.list.Inc()
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	for _, id := range s.catalog.ids() {
		fmt.Fprintln(w, id)
	}
}

func (s *Server) handleMPD(w http.ResponseWriter, r *http.Request, video string) {
	s.met.mpd.Inc()
	v, ok := s.catalog.Get(video)
	if !ok {
		http.NotFound(w, r)
		return
	}
	out, err := buildMPD(v).marshal()
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

func (s *Server) handleChunk(w http.ResponseWriter, r *http.Request, rt route) {
	s.met.chunks.Inc()
	v, ok := s.catalog.Get(rt.video)
	if !ok {
		http.NotFound(w, r)
		return
	}
	q, err1 := strconv.Atoi(rt.quality)
	tile, err2 := strconv.Atoi(rt.tile)
	idx, err3 := strconv.Atoi(rt.index)
	if err1 != nil || err2 != nil || err3 != nil {
		http.Error(w, "dash: bad chunk address", http.StatusBadRequest)
		return
	}
	if q < 0 || q >= v.Qualities() || !v.Grid.Valid(tiling.TileID(tile)) || idx < 0 || idx >= v.NumChunks() {
		http.Error(w, "dash: chunk out of range", http.StatusNotFound)
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
		// gets — dispatch routes one as a GET, and net/http discards
		// what its handler writes, so nothing is synthesized,
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
		}
		return
	}
	if st, ok := s.store.(chunkStreamer); ok {
		// Streaming source: the body flows straight from the source into
		// the response writer — nothing is materialized here. Once bytes
		// are on the wire (or the client has left, or its writer failed)
		// a failure can only be abandoned, not repaired into an error
		// status.
		n, err := st.StreamChunk(r.Context(), w, v.ID, q, tile, idx, isLayer)
		if err != nil {
			if n > 0 || r.Context().Err() != nil || errors.Is(err, ErrViewerGone) {
				markAborted(w)
				return
			}
			// The streamer may have promised a length before its source
			// failed; an error body under a stale Content-Length would
			// truncate or pad on the wire.
			w.Header().Del("Content-Length")
			writeChunkError(w, r, err)
		}
		return
	}
	body, err := s.store.Chunk(r.Context(), v.ID, q, tile, idx, isLayer)
	if err != nil {
		writeChunkError(w, r, err)
		return
	}
	SetOctetStream(w.Header())
	w.Header().Set("Content-Length", strconv.Itoa(len(body)))
	if _, err := w.Write(body); err != nil {
		markAborted(w)
	}
}

// writeChunkError maps a chunk-source failure onto the wire: a caller
// that went away is an abort (nobody left to answer), an overload shed
// is 503 with the Retry-After hint so a resilient client backs off
// instead of hammering, unavailability is a plain 503, and anything
// else a 500.
func writeChunkError(w http.ResponseWriter, r *http.Request, err error) {
	if r.Context().Err() != nil {
		markAborted(w)
		return
	}
	var de *Error
	switch {
	case errors.As(err, &de) && de.Kind == KindOverload:
		if secs := retryAfterSeconds(de.RetryAfter); secs > 0 {
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
		// address — the collision adjacent payload seeds once had,
		// reintroduced through the address space.
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

// ChunkPath renders the URL path of a chunk as it goes on the wire. The
// ID travels as one escaped path segment — a slash, percent, question
// mark or hash in it is part of the name, not of the URL — which the
// server's dispatch turns back into the ID; no space, CR or LF survives the
// escaping, so the path can go into a request line as it is.
func ChunkPath(videoID string, q, tile, idx int, layer bool) string {
	return string(AppendChunkPath(make([]byte, 0, 96), videoID, q, tile, idx, layer))
}

// AppendChunkPath appends ChunkPath's bytes to b, for a caller that
// writes the path into a buffer of its own.
func AppendChunkPath(b []byte, videoID string, q, tile, idx int, layer bool) []byte {
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
	return b
}

// mpdPath renders the URL path of a manifest.
func mpdPath(videoID string) string { return "/v/" + url.PathEscape(videoID) + "/manifest.mpd" }
