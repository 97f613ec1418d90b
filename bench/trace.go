package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"sperke/internal/abr"
	"sperke/internal/hmp"
	"sperke/internal/serve"
	"sperke/internal/trace"
	"sperke/internal/transport"
)

// span is one timed call into a layer. Times are nanoseconds since the
// tracer's epoch. Spans of one request (or one simulated session) share
// Req; Parent is the span that caused this one, 0 for a root.
type span struct {
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent"`
	Req    uint64 `json:"req"`
	Name   string `json:"name"`
	Start  int64  `json:"start"`
	End    int64  `json:"end"`
}

// spanRef is the identity a child needs to attach itself.
type spanRef struct{ req, id uint64 }

// tracer keeps every span in memory until the run ends. It records
// nothing until on is set, so set-up traffic stays out of the trace.
type tracer struct {
	on     atomic.Bool
	epoch  time.Time
	nextID atomic.Uint64

	mu    sync.Mutex
	spans []span
	// open lists the unfinished spans per chunk key, innermost last. A
	// layer reached through a severed context — serve.Store runs a miss
	// on its own flight context, so the origin behind an edge sees no
	// request identity — finds its parent here instead.
	open map[serve.ChunkKey][]spanRef
}

func newTracer() *tracer {
	return &tracer{epoch: time.Now(), open: make(map[serve.ChunkKey][]spanRef)}
}

type spanCtxKey struct{}

// spanHeader carries "<req>.<span>" across an HTTP hop; only the
// harness's own decorators read or write it.
const spanHeader = "X-Bench-Span"

// liveSpan is a started span; end records it. A nil *liveSpan (tracing
// off) is valid and does nothing.
type liveSpan struct {
	t    *tracer
	s    span
	key  serve.ChunkKey
	once sync.Once
}

// start opens a span under the span ctx carries, else under the
// innermost open span for key, else as an orphan root (background work
// such as a replica warm). The returned context carries the new span.
func (t *tracer) start(ctx context.Context, name string, key serve.ChunkKey) (context.Context, *liveSpan) {
	if t == nil || !t.on.Load() {
		return ctx, nil
	}
	parent, ok := ctx.Value(spanCtxKey{}).(spanRef)
	ls := &liveSpan{t: t, key: key}
	ls.s.ID = t.nextID.Add(1)
	ls.s.Name = name
	if key.Video != "" {
		t.mu.Lock()
		if stack := t.open[key]; !ok && len(stack) > 0 {
			parent, ok = stack[len(stack)-1], true
		}
		t.open[key] = append(t.open[key], spanRef{parent.req, ls.s.ID})
		t.mu.Unlock()
	}
	if ok {
		ls.s.Req, ls.s.Parent = parent.req, parent.id
	}
	ls.s.Start = int64(time.Since(t.epoch))
	return context.WithValue(ctx, spanCtxKey{}, spanRef{ls.s.Req, ls.s.ID}), ls
}

// startRoot opens the root span of request (or session) req.
func (t *tracer) startRoot(ctx context.Context, name string, req uint64, key serve.ChunkKey) (context.Context, *liveSpan) {
	return t.start(context.WithValue(ctx, spanCtxKey{}, spanRef{req: req}), name, key)
}

func (ls *liveSpan) end() {
	if ls == nil {
		return
	}
	ls.once.Do(func() {
		ls.s.End = int64(time.Since(ls.t.epoch))
		t := ls.t
		t.mu.Lock()
		t.spans = append(t.spans, ls.s)
		if ls.key.Video != "" {
			stack := t.open[ls.key]
			for i := len(stack) - 1; i >= 0; i-- {
				if stack[i].id == ls.s.ID {
					stack = append(stack[:i], stack[i+1:]...)
					break
				}
			}
			if len(stack) == 0 {
				delete(t.open, ls.key)
			} else {
				t.open[ls.key] = stack
			}
		}
		t.mu.Unlock()
	})
}

// keyFromPath parses a chunk URL path (/v/{video}/c/{q}/{tile}/{idx}).
func keyFromPath(p string) serve.ChunkKey {
	parts := strings.Split(p, "/")
	if len(parts) != 7 || parts[1] != "v" || parts[3] != "c" {
		return serve.ChunkKey{}
	}
	q, err1 := strconv.Atoi(parts[4])
	tile, err2 := strconv.Atoi(parts[5])
	idx, err3 := strconv.Atoi(parts[6])
	if err1 != nil || err2 != nil || err3 != nil {
		return serve.ChunkKey{}
	}
	return serve.ChunkKey{Video: parts[2], Quality: q, Tile: tile, Index: idx}
}

// ---- decorators at public seams ----

// tracedTransport spans one HTTP exchange from RoundTrip to body EOF
// and hands the span to the far side in spanHeader. rewrite, when set,
// maps a request host to the listener that serves it (the wire.hop
// seam: cluster.WithTransport names nodes, the harness binds them).
type tracedTransport struct {
	t       *tracer
	name    string
	inner   http.RoundTripper
	rewrite map[string]string
}

func (tt *tracedTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	ctx, ls := tt.t.start(req.Context(), tt.name, keyFromPath(req.URL.Path))
	if ls != nil || tt.rewrite != nil {
		req = req.Clone(ctx)
		if ls != nil {
			req.Header.Set(spanHeader, fmt.Sprintf("%d.%d", ls.s.Req, ls.s.ID))
		}
		if addr, ok := tt.rewrite[req.URL.Host]; ok {
			req.URL.Host = addr
		}
	}
	resp, err := tt.inner.RoundTrip(req)
	if err != nil {
		ls.end()
		return nil, err
	}
	if ls != nil {
		resp.Body = &spanBody{ReadCloser: resp.Body, ls: ls}
	}
	return resp, nil
}

// spanBody ends its span at EOF or Close, whichever comes first.
type spanBody struct {
	io.ReadCloser
	ls *liveSpan
}

func (b *spanBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	if err != nil {
		b.ls.end()
	}
	return n, err
}

func (b *spanBody) Close() error {
	b.ls.end()
	return b.ReadCloser.Close()
}

// tracedHandler spans one served request. It passes the ResponseWriter
// through untouched, so Flush and every other optional interface the
// streaming path asserts on stay reachable.
func tracedHandler(t *tracer, name string, next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		ctx := r.Context()
		if v := r.Header.Get(spanHeader); v != "" {
			if reqID, spanID, ok := strings.Cut(v, "."); ok {
				a, err1 := strconv.ParseUint(reqID, 10, 64)
				b, err2 := strconv.ParseUint(spanID, 10, 64)
				if err1 == nil && err2 == nil {
					ctx = context.WithValue(ctx, spanCtxKey{}, spanRef{a, b})
				}
			}
		}
		ctx, ls := t.start(ctx, name, keyFromPath(r.URL.Path))
		if ls != nil {
			r = r.WithContext(ctx)
		}
		next.ServeHTTP(w, r)
		ls.end()
	})
}

// tracedSource spans the origin *serve.Store as a dash.ChunkSource and
// forwards the optional ChunkLen/ChunkTo methods the wire router
// type-asserts on its origin, so the traced cluster takes the same
// streaming fallback the untraced one does.
type tracedSource struct {
	t     *tracer
	store *serve.Store
}

func (s *tracedSource) Chunk(ctx context.Context, videoID string, quality, tile, index int, layer bool) ([]byte, error) {
	ctx, ls := s.t.start(ctx, "serve.store", serve.ChunkKey{Video: videoID, Quality: quality, Tile: tile, Index: index, Layer: layer})
	defer ls.end()
	return s.store.Chunk(ctx, videoID, quality, tile, index, layer)
}

func (s *tracedSource) ChunkLen(videoID string, quality, tile, index int, layer bool) (int, error) {
	return s.store.ChunkLen(videoID, quality, tile, index, layer)
}

func (s *tracedSource) ChunkTo(ctx context.Context, w io.Writer, videoID string, quality, tile, index int, layer bool) (int64, error) {
	ctx, ls := s.t.start(ctx, "serve.store", serve.ChunkKey{Video: videoID, Quality: quality, Tile: tile, Index: index, Layer: layer})
	defer ls.end()
	return s.store.ChunkTo(ctx, w, videoID, quality, tile, index, layer)
}

// tracedAlgorithm, tracedPredictor and tracedScheduler are bound to one
// session each, so their spans attach to that session's root without a
// context.
type tracedAlgorithm struct {
	t     *tracer
	root  context.Context
	inner abr.Algorithm
}

func (a *tracedAlgorithm) Name() string { return a.inner.Name() }

func (a *tracedAlgorithm) ChooseQuality(c abr.Context) int {
	_, ls := a.t.start(a.root, "abr.plan", serve.ChunkKey{})
	defer ls.end()
	return a.inner.ChooseQuality(c)
}

type tracedPredictor struct {
	t     *tracer
	root  context.Context
	inner hmp.Predictor
}

func (p *tracedPredictor) Name() string           { return p.inner.Name() }
func (p *tracedPredictor) Observe(s trace.Sample) { p.inner.Observe(s) }

func (p *tracedPredictor) Predict(at time.Duration) hmp.Prediction {
	_, ls := p.t.start(p.root, "hmp.predict", serve.ChunkKey{})
	defer ls.end()
	return p.inner.Predict(at)
}

type tracedScheduler struct {
	t     *tracer
	root  context.Context
	inner transport.Scheduler
}

func (s *tracedScheduler) Name() string { return s.inner.Name() }

func (s *tracedScheduler) Submit(r *transport.Request) {
	_, ls := s.t.start(s.root, "transport.submit", serve.ChunkKey{})
	defer ls.end()
	s.inner.Submit(r)
}

// SubmitCtx keeps the session on the context-aware path the bare
// scheduler would have taken.
func (s *tracedScheduler) SubmitCtx(ctx context.Context, r *transport.Request) {
	_, ls := s.t.start(s.root, "transport.submit", serve.ChunkKey{})
	defer ls.end()
	transport.SubmitContext(s.inner, ctx, r)
}

// ---- analysis ----

// layerStat summarises one span name over a traced pass.
type layerStat struct {
	selfP50us, selfP99us float64 // over the name's spans
	calls                int
	// selfByReq sums the name's self time within each request, in us.
	selfByReq map[uint64]float64
}

// selfTimes computes, for every span, its duration minus the part its
// children cover (children clipped to the parent and merged where they
// overlap), and groups the results by span name.
func selfTimes(spans []span) map[string]*layerStat {
	children := make(map[uint64][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make(map[string][]float64)
	out := make(map[string]*layerStat)
	for _, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
		covered, edge := int64(0), s.Start
		for _, k := range kids {
			from, to := max(k.Start, edge), min(k.End, s.End)
			if to > from {
				covered += to - from
				edge = to
			}
		}
		us := float64(s.End-s.Start-covered) / 1e3
		self[s.Name] = append(self[s.Name], us)
		st := out[s.Name]
		if st == nil {
			st = &layerStat{selfByReq: make(map[uint64]float64)}
			out[s.Name] = st
		}
		st.selfByReq[s.Req] += us
	}
	for name, vs := range self {
		sort.Float64s(vs)
		st := out[name]
		st.selfP50us, st.selfP99us, st.calls = quantile(vs, 0.50), quantile(vs, 0.99), len(vs)
	}
	return out
}

// checkParents reports the first span whose parent was never recorded.
func checkParents(spans []span) error {
	ids := make(map[uint64]struct{}, len(spans))
	for _, s := range spans {
		ids[s.ID] = struct{}{}
	}
	for _, s := range spans {
		if _, ok := ids[s.Parent]; s.Parent != 0 && !ok {
			return fmt.Errorf("span %d (%s) names parent %d, which was not recorded", s.ID, s.Name, s.Parent)
		}
	}
	return nil
}

// maxSpansWritten bounds the spans file; the metrics use every span.
const maxSpansWritten = 50000

// writeSpans dumps the head of the trace to <dir>/<workload>.spans.json.
func writeSpans(dir, workload string, spans []span) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	total := len(spans)
	if len(spans) > maxSpansWritten {
		spans = spans[:maxSpansWritten]
	}
	data, err := json.Marshal(struct {
		Workload string `json:"workload"`
		TimeUnit string `json:"time_unit"`
		Recorded int    `json:"recorded"`
		Spans    []span `json:"spans"`
	}{workload, "ns", total, spans})
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, workload+".spans.json"), data, 0o644)
}
