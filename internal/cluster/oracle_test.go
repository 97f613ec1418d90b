package cluster

import (
	"bytes"
	"container/list"
	"context"
	"errors"
	"fmt"
	"io"
	"maps"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"sperke/internal/dash"
	"sperke/internal/obs"
	"sperke/internal/serve"
	"sperke/internal/sim"
	"sperke/internal/transport"
)

// The model harness: one byte-coded scenario drives an in-process
// cluster over a real origin store, and a naive model of both — a
// store is a map and an LRU list per shard, a flight an interest count,
// a request a chain of callbacks, placement Rank's and bodies
// dash.BuildChunkBody's. The origin can hold one key, so requests park
// mid-flight while the scenario cancels, kills, recovers, adds,
// removes, sheds, Puts and Resets around them. A pinned read of the
// origin (StreamChunk) stalls in Write until a later pinned read has
// settled, so evictions, Resets and misses of its size class run while
// it holds its body, and the bytes it writes at last must still be
// dash.BuildChunkBody's: a store that reused a body it had lent out
// fails here. After every step the
// cluster must match the model: outcomes and bodies, where goroutines
// park, the bodies resident in every store (so resident bytes are
// within budget and the sum of the live entries, one LRU element each;
// sealed, though a writer-form origin's are read under a pin and
// Peeked for their seal at the last step only, see checkStore), and
// every counter, the origin store's hits + misses + singleflight_shared
// equal to its Gets and Pulls live at entry among them. An edge's miss
// Pulls from the origin, which caches nothing on a flight a Pull leads;
// an origin fallback and a pinned read admit. After Close no goroutine
// is left.
//
// The model never guesses which of two racing goroutines won, because
// one key is held at a time, so a release wakes work on that key alone,
// and a route flight takes one follower, so a failed leader hands the
// key to one walker (TestHerdColdKeyCoalescesToOneOriginFetch keeps
// the herd). So too a held key no chunk has takes no second request,
// and cluster.warms goes unchecked: a release can wake a co-owner's own
// miss beside the walk that warms it, and which lands first decides
// whether the Put counts.

// modelKeys are addresses on wireVideo with bodies of 14 to 72 KB, so
// a few fill a shard's slice and the largest may fit none, and last an
// SVC layer of an AVC video, which every fetch fails on.
var modelKeys = func() (ks []serve.ChunkKey) {
	for tile, q := range []int{0, 1, 0, 1, 0, 2, 1} {
		ks = append(ks, serve.ChunkKey{Video: "wire", Quality: q, Tile: tile, Index: tile / 3})
	}
	return append(ks, serve.ChunkKey{Video: "wire", Tile: 7, Index: 2, Layer: true})
}()

var modelBodies = sync.OnceValue(func() map[serve.ChunkKey][]byte {
	m := make(map[serve.ChunkKey][]byte)
	for _, k := range modelKeys {
		if b, err := dash.BuildChunkBody(wireVideo(), k.Quality, k.Tile, k.Index, k.Layer); err == nil {
			m[k] = b
		}
	}
	return m
})

var errModelShed = &dash.Error{Kind: dash.KindOverload, Err: dash.ErrUnavailable}

func bodyOf(k serve.ChunkKey) ([]byte, error) {
	if b, ok := modelBodies()[k]; ok {
		return b, nil
	}
	return nil, errors.New("model: no such chunk")
}

// mctx is the model's context: cancel runs, once, the callbacks still
// registered, which stand for context.AfterFunc and a select on Done.
type mctx struct {
	done bool
	fns  []*func()
}

func (c *mctx) after(f func()) (stop func()) {
	c.fns = append(c.fns, &f)
	return func() { f = nil }
}

func (c *mctx) cancel() {
	if c.done {
		return
	}
	c.done = true
	for i := 0; i < len(c.fns); i++ {
		if f := *c.fns[i]; f != nil {
			*c.fns[i] = nil
			f()
		}
	}
}

// mwait is a caller parked on a flight; gone once it has left.
type mwait struct {
	gone bool
	done func([]byte, error)
}

type mshard struct {
	at            map[serve.ChunkKey]*list.Element // of *mentry
	lru           list.List
	bytes, budget int64
}

type mentry struct {
	key  serve.ChunkKey
	body []byte
}

type mflight struct {
	key              serve.ChunkKey
	interest, resets int
	ctx              *mctx // the flight's own; nil on a writer-form store
	waiters          []*mwait
}

// mstore is serve.Store with two shards, as the rig builds every store.
type mstore struct {
	cancelable bool
	shards     [2]*mshard
	flights    map[serve.ChunkKey]*mflight
	waiting    *int // the model's count of callers parked on flights
	resets     int
	synth      func(ctx *mctx, key serve.ChunkKey, done func([]byte, error))
	ctr        map[string]int64 // serve.store.* counters
}

func newMStore(budget int64, cancelable bool, waiting *int, synth func(*mctx, serve.ChunkKey, func([]byte, error))) *mstore {
	s := &mstore{cancelable: cancelable, waiting: waiting, synth: synth, ctr: make(map[string]int64)}
	s.shards = [2]*mshard{{budget: budget / 2}, {budget: budget / 2}}
	s.reset()
	return s
}

func (s *mstore) shard(k serve.ChunkKey) *mshard { return s.shards[k.Fold(14695981039346656037)&1] }

func (s *mstore) reset() {
	for _, sh := range s.shards {
		sh.at, sh.bytes = make(map[serve.ChunkKey]*list.Element), 0
		sh.lru.Init()
	}
	s.flights = make(map[serve.ChunkKey]*mflight)
	s.resets++
}

func (s *mstore) insert(k serve.ChunkKey, body []byte) bool {
	sh := s.shard(k)
	if sh.at[k] != nil {
		return false
	}
	if int64(len(body)) > sh.budget {
		s.ctr["serve.store.uncacheable"]++
		return false
	}
	sh.at[k] = sh.lru.PushFront(&mentry{k, body})
	for sh.bytes += int64(len(body)); sh.bytes > sh.budget && sh.lru.Len() > 1; s.ctr["serve.store.evictions"]++ {
		e := sh.lru.Remove(sh.lru.Back()).(*mentry)
		delete(sh.at, e.key)
		sh.bytes -= int64(len(e.body))
	}
	return true
}

// get is a Get, and without admit a Pull: a flight it leads caches
// nothing, whoever joins it.
func (s *mstore) get(ctx *mctx, k serve.ChunkKey, admit bool, done func([]byte, error)) {
	if ctx.done {
		done(nil, context.Canceled)
		return
	}
	if el := s.shard(k).at[k]; el != nil {
		s.shard(k).lru.MoveToFront(el)
		s.ctr["serve.store.hits"]++
		done(el.Value.(*mentry).body, nil)
		return
	}
	if fl := s.flights[k]; fl != nil {
		fl.interest++
		s.ctr["serve.store.singleflight_shared"]++
		w := &mwait{done: done}
		fl.waiters, *s.waiting = append(fl.waiters, w), *s.waiting+1
		ctx.after(func() {
			if !w.gone {
				w.gone, *s.waiting = true, *s.waiting-1
				s.abandon(fl)
				done(nil, context.Canceled)
			}
		})
		return
	}
	fl := &mflight{key: k, interest: 1, resets: s.resets}
	s.flights[k] = fl
	s.ctr["serve.store.misses"]++
	fctx, stop := ctx, func() {}
	if s.cancelable {
		fl.ctx = &mctx{}
		fctx, stop = fl.ctx, ctx.after(func() { s.abandon(fl) })
	}
	s.synth(fctx, k, func(body []byte, err error) {
		stop()
		if s.flights[k] == fl {
			delete(s.flights, k)
		}
		if admit && err == nil && fl.resets == s.resets {
			s.insert(k, body)
		}
		for _, w := range fl.waiters {
			if !w.gone {
				w.gone, *s.waiting = true, *s.waiting-1
				w.done(body, err)
			}
		}
		done(body, err)
	})
}

func (s *mstore) abandon(fl *mflight) {
	if fl.interest--; s.cancelable && fl.interest == 0 {
		if s.flights[fl.key] == fl {
			delete(s.flights, fl.key)
		}
		fl.ctx.cancel()
	}
}

type mnode struct {
	id         string
	store      *mstore
	down, gone bool
	inflight   int
	breaker    *transport.Breaker
	last       transport.BreakerState
}

// req is one request: the model's run of it, and the cluster's answer.
type req struct {
	ctx    *mctx
	done   bool
	body   []byte
	err    error
	key    serve.ChunkKey
	sink   int // 0: Chunk; 1: StreamChunk; 2: StreamChunk to a viewer that stalls; 3: a node's own Chunk; 4: a pinned read of the origin
	cancel context.CancelFunc
	resume chan struct{} // a pinned read's until closed, which lets its Write go
	let    bool          // a later pinned read has started: let this one go once that has settled
	out    chan struct{} // closed once got, gotErr and length hold the cluster's answer
	got    []byte
	gotErr error
	length string // a streamed response's Content-Length
}

func (r *req) finish(body []byte, err error) { r.done, r.body, r.err = true, body, err }

// model is the cluster, its origin and the gate, run in one goroutine.
type model struct {
	clock          obs.Clock
	r, maxIn       int
	budget         int64
	ids, removed   []string
	byID           map[string]*mnode
	nextID         int
	origin         *mstore
	coal           map[serve.ChunkKey]*mwait // each open route flight's follower, nil for none
	held           *serve.ChunkKey
	gate           []*func() // the held syntheses, each resuming its flight
	originReads    int64     // origin Gets and Pulls live at entry
	waiting        int       // callers parked on a store's flight
	following      int       // callers parked on a route flight
	counter, gauge map[string]int64
}

func (o *model) originSynth(ctx *mctx, k serve.ChunkKey, done func([]byte, error)) {
	if o.held == nil || *o.held != k {
		done(bodyOf(k))
		return
	}
	stop := func() {}
	resume := func() {
		stop()
		done(bodyOf(k))
	}
	o.gate = append(o.gate, &resume)
	if o.origin.cancelable {
		stop = ctx.after(func() {
			o.gate = slices.DeleteFunc(o.gate, func(x *func()) bool { return x == &resume })
			done(nil, context.Canceled)
		})
	}
}

func (o *model) release() {
	gs := o.gate
	o.gate, o.held = nil, nil
	for _, resume := range gs {
		(*resume)()
	}
}

// originRead is a read of the origin store: its Chunk, a Get, or with
// admit false an edge's Pull.
func (o *model) originRead(ctx *mctx, k serve.ChunkKey, admit bool, done func([]byte, error)) {
	if !ctx.done {
		o.originReads++
	}
	o.origin.get(ctx, k, admit, done)
}

func (o *model) addNode(id string) {
	n := &mnode{id: id, breaker: transport.NewBreaker(o.clock, transport.BreakerConfig{
		FailureThreshold: 3, Cooldown: 500 * time.Millisecond, ProbeSuccesses: 2})}
	n.store = newMStore(o.budget, true, &o.waiting, func(ctx *mctx, k serve.ChunkKey, done func([]byte, error)) {
		o.counter["cluster.node."+id+".misses"]++
		o.counter["cluster.origin_fetches"]++
		o.originRead(ctx, k, false, done)
	})
	o.ids, o.byID[id] = append(o.ids, id), n
	o.gauge["cluster.node."+id+".up"], o.gauge["cluster.health."+id+".alive"] = 1, 1
}

// allow and observe are the node's detector: the real breaker, and the
// transitions it publishes.
func (o *model) allow(n *mnode) bool {
	ok := !n.gone && n.breaker.Allow()
	o.publish(n)
	return ok
}

func (o *model) observe(n *mnode, err error) {
	switch {
	case n.gone:
	case err != nil:
		n.breaker.OnFailure()
	default:
		n.breaker.OnSuccess()
	}
	o.publish(n)
}

func (o *model) publish(n *mnode) {
	s, prev := n.breaker.State(), n.last
	switch n.last = s; {
	case n.gone || s == prev:
	case s == transport.BreakerOpen:
		o.gauge["cluster.health."+n.id+".alive"] = 0
		if prev == transport.BreakerClosed {
			o.counter["cluster.health.down_transitions"]++
		}
	case s == transport.BreakerClosed:
		o.counter["cluster.health.up_transitions"]++
		o.gauge["cluster.health."+n.id+".alive"] = 1
	}
}

func (o *model) nodeChunk(n *mnode, ctx *mctx, k serve.ChunkKey, done func([]byte, error)) {
	switch p := "cluster.node." + n.id; {
	case n.down:
		o.counter[p+".down_denials"]++
		done(nil, ErrNodeDown)
	case n.inflight >= o.maxIn:
		o.counter[p+".sheds"]++
		done(nil, errModelShed)
	default:
		n.inflight++
		o.counter[p+".requests"]++
		held := true
		release := func() {
			if held {
				held, n.inflight = false, n.inflight-1
			}
		}
		stop := ctx.after(release) // the slot is the caller's
		n.store.get(ctx, k, true, func(b []byte, err error) {
			stop()
			release()
			done(b, err)
		})
	}
}

func (o *model) route(r *req, k serve.ChunkKey) {
	o.counter["cluster.requests"]++
	if _, open := o.coal[k]; !open {
		o.coal[k] = nil
		o.walk(r, k, true, func(b []byte, err error) {
			o.publishFlight(k, true, nil, err)
			r.finish(b, err)
		})
		return
	}
	if r.ctx.done {
		r.finish(nil, context.Canceled)
		return
	}
	w := &mwait{done: func(b []byte, err error) {
		if err != nil {
			o.walk(r, k, false, r.finish)
			return
		}
		o.counter["cluster.coalesced"]++
		r.finish(b, nil)
	}}
	o.coal[k], o.following = w, o.following+1
	r.ctx.after(func() {
		if !w.gone {
			w.gone, o.following = true, o.following-1
			r.finish(nil, context.Canceled)
		}
	})
}

// publishFlight closes k's route flight when lead says the walk leads
// it, handing the follower the body or sending it on a walk of its own.
func (o *model) publishFlight(k serve.ChunkKey, lead bool, body []byte, err error) {
	if w, open := o.coal[k]; lead && open {
		delete(o.coal, k)
		if w != nil && !w.gone {
			w.gone, o.following = true, o.following-1
			w.done(body, err)
		}
	}
}

func (o *model) walk(r *req, k serve.ChunkKey, lead bool, done func([]byte, error)) {
	byID := maps.Clone(o.byID) // the walk's snapshot
	ranked := Rank(k, o.ids)
	owners := ranked[:min(o.r, len(ranked))]
	var try func(int)
	try = func(rank int) {
		for ; rank < len(ranked) && !o.allow(byID[ranked[rank]]); rank++ {
		}
		if rank == len(ranked) {
			o.fallback(r, k, lead, done)
			return
		}
		edge := byID[ranked[rank]]
		o.nodeChunk(edge, r.ctx, k, func(body []byte, err error) {
			switch {
			case err == nil:
				for _, id := range owners {
					if t := byID[id]; id != edge.id && !t.down && !t.gone && t.breaker.State() == transport.BreakerClosed {
						t.store.insert(k, body)
					}
				}
				o.publishFlight(k, lead, body, nil)
				o.observe(edge, nil)
				if rank > 0 {
					o.counter["cluster.reroutes"]++
				}
				done(body, nil)
			case r.ctx.done:
				done(nil, err)
			case isShed(err):
				o.counter["cluster.sheds"]++
				o.fallback(r, k, lead, done)
			default:
				o.observe(edge, err)
				try(rank + 1)
			}
		})
	}
	try(0)
}

func (o *model) fallback(r *req, k serve.ChunkKey, lead bool, done func([]byte, error)) {
	o.counter["cluster.origin_fallbacks"]++
	o.originRead(r.ctx, k, true, func(body []byte, err error) {
		if err != nil {
			o.counter["cluster.origin_errors"]++
			done(nil, err)
			return
		}
		o.counter["cluster.origin_fetches"]++
		o.publishFlight(k, lead, body, nil)
		done(body, nil)
	})
}

// gate holds the origin's synthesis of one key until released.
type gate struct {
	held   atomic.Pointer[heldKey]
	parked atomic.Int32 // syntheses waiting on the held key
}

type heldKey struct {
	key  serve.ChunkKey
	open chan struct{}
}

// wait blocks a synthesis of the held key until the key is released or
// ctx is done.
func (g *gate) wait(ctx context.Context, k serve.ChunkKey) error {
	if h := g.held.Load(); h != nil && h.key == k {
		g.parked.Add(1)
		defer g.parked.Add(-1)
		select {
		case <-h.open:
		case <-ctx.Done():
			return ctx.Err()
		}
	}
	return nil
}

// set releases the held key, if any, and holds k, if not nil.
func (g *gate) set(k *serve.ChunkKey) {
	var h *heldKey
	if k != nil {
		h = &heldKey{*k, make(chan struct{})}
	}
	if old := g.held.Swap(h); old != nil {
		close(old.open)
	}
}

type rig struct {
	t       testing.TB
	c       *Cluster
	gate    *gate
	origin  *serve.Store
	oreg    *obs.Registry
	m       *model
	live    []*req
	pinned  []*req // pinned reads the model has finished, stalled in Write
	final   bool   // the scenario's last settle
	log     []string
	stacks  []byte
	base    int                           // goroutines before the cluster
	stalled atomic.Int32                  // viewers stalled in Write
	unstall atomic.Pointer[chan struct{}] // closed to let them go
}

// idleViewer has stopped reading until the rig lets it go: a pinned
// read's at its own resume, any other at the step's end.
type idleViewer struct {
	*httptest.ResponseRecorder
	h      *rig
	resume chan struct{}
}

func (v idleViewer) Write(p []byte) (int, error) {
	v.h.stalled.Add(1)
	defer v.h.stalled.Add(-1)
	if v.resume != nil {
		<-v.resume
	} else {
		<-*v.h.unstall.Load()
	}
	return v.ResponseRecorder.Write(p)
}

func (h *rig) fatalf(format string, args ...any) {
	h.t.Helper()
	h.t.Fatalf("%s\n%s", strings.Join(h.log, "\n"), fmt.Sprintf(format, args...))
}

func (h *rig) request(k serve.ChunkKey, sink int, node string, canceled bool) {
	ctx, cancel := context.WithCancel(context.Background())
	r := &req{ctx: &mctx{done: canceled}, key: k, sink: sink, cancel: cancel, out: make(chan struct{})}
	if sink == 4 {
		r.resume = make(chan struct{})
	}
	if canceled {
		cancel()
	}
	h.log = append(h.log, fmt.Sprintf("request %v sink %d node %q canceled %v", k, sink, node, canceled))
	h.live = append(h.live, r)
	n, rec, resume := h.c.Node(node), httptest.NewRecorder(), r.resume
	go func() {
		defer close(r.out)
		switch sink {
		case 0:
			r.got, r.gotErr = h.c.Chunk(ctx, k.Video, k.Quality, k.Tile, k.Index, k.Layer)
		case 1, 2:
			w := http.ResponseWriter(rec)
			if sink == 2 {
				w = idleViewer{rec, h, nil}
			}
			_, r.gotErr = h.c.StreamChunk(ctx, w, k.Video, k.Quality, k.Tile, k.Index, k.Layer)
			r.got, r.length = rec.Body.Bytes(), rec.Header().Get("Content-Length")
		case 3:
			r.got, r.gotErr = n.Chunk(ctx, k.Video, k.Quality, k.Tile, k.Index, k.Layer)
		case 4:
			_, r.gotErr = h.origin.StreamChunk(ctx, idleViewer{rec, h, resume}, k.Video, k.Quality, k.Tile, k.Index, k.Layer)
			r.got, r.length = rec.Body.Bytes(), rec.Header().Get("Content-Length")
		}
	}()
	switch sink {
	case 3:
		h.m.nodeChunk(h.m.byID[node], r.ctx, k, r.finish)
	case 4: // the model's pinned read is a Get
		h.m.originRead(r.ctx, k, true, r.finish)
	default:
		h.m.route(r, k)
	}
}

// settle waits until the cluster is where the model is: the requests it
// finished have returned (a stalled viewer's waits in Write), those it
// parked are parked where it has them, and no other goroutine runs, so
// a cancel's context.AfterFunc has done its work. Then it lets the
// stalled viewers go and checks that the two agree.
func (h *rig) settle() {
	deadline := time.Now().Add(10 * time.Second)
	wait := func(r *req) {
		h.letGo(r)
		select {
		case <-r.out:
		case <-time.After(time.Until(deadline)):
			h.fatalf("a %v request (sink %d) the model finished (%v) has not returned", r.key, r.sink, r.err)
		}
		if ref := modelBodies()[r.key]; errClass(r.gotErr) != errClass(r.err) ||
			r.gotErr == nil && (!bytes.Equal(r.got, ref) || r.sink%3 != 0 && r.length != strconv.Itoa(len(ref))) {
			h.fatalf("a %v request (sink %d) returned %d bytes, Content-Length %q, %v; the model has %d bytes, %v", r.key, r.sink, len(r.got), r.length, r.gotErr, len(ref), r.err)
		}
	}
	var live, stalled []*req
	for _, r := range h.live {
		switch {
		case !r.done:
			live = append(live, r)
		case r.sink == 2 && r.err == nil:
			stalled = append(stalled, r)
		case r.sink == 4 && r.err == nil:
			h.pinned = append(h.pinned, r)
		default:
			wait(r)
		}
	}
	h.live = live
	inWrite := len(stalled) + len(h.pinned)
	wantRoute, wantStore, wantGate := h.m.following, h.m.waiting, len(h.m.gate)
	for {
		route, store := 0, 0
		if wantRoute+wantStore > 0 {
			route, store = parked(h.stacks)
		}
		gate := int(h.gate.parked.Load())
		if route == wantRoute && store == wantStore && gate == wantGate && int(h.stalled.Load()) == inWrite &&
			runtime.NumGoroutine() <= h.base+len(live)+inWrite {
			break
		}
		if time.Now().After(deadline) {
			h.fatalf("parked: %d in route, %d on a store flight, %d at the origin, %d in Write, %d goroutines; the model has %d, %d, %d, %d, %d", route, store, gate, h.stalled.Load(), runtime.NumGoroutine(), wantRoute, wantStore, wantGate, inWrite, h.base+len(live)+inWrite)
		}
		time.Sleep(50 * time.Microsecond)
	}
	for _, r := range live {
		select {
		case <-r.out:
			h.fatalf("a %v request the model has parked returned (%v)", r.key, r.gotErr)
		default:
		}
	}
	unstall := make(chan struct{})
	close(*h.unstall.Swap(&unstall))
	for _, r := range stalled {
		wait(r)
	}
	kept := h.pinned[:0]
	for _, r := range h.pinned {
		if r.let || h.final {
			wait(r)
		} else {
			kept = append(kept, r)
		}
	}
	h.pinned = kept
	h.checkState()
}

// letGo lets a pinned read's Write go, once.
func (h *rig) letGo(r *req) {
	if r.resume != nil {
		close(r.resume)
		r.resume = nil
	}
}

// errClass sorts an error the way the model tells errors apart.
func errClass(err error) int {
	for i, target := range []error{nil, context.Canceled, ErrNodeDown, dash.ErrUnavailable} {
		if errors.Is(err, target) {
			return i
		}
	}
	return -1
}

// checkStore compares a store's residents with the model's: each must
// hold dash.BuildChunkBody's bytes. With peek it Peeks them, which also
// shows each sealed (len == cap) but hands the body out, so a
// writer-form origin could never reuse it; that origin's residents are
// read instead through StreamChunk, a pinned read that leaves the body
// free for reuse. It reads each shard's oldest first, so the hits,
// which the model counts as origin Gets, leave the LRU order as it was.
func (h *rig) checkStore(name string, st *serve.Store, m *mstore, peek bool) {
	n, sum := 0, int64(0)
	for _, sh := range m.shards {
		var keys []serve.ChunkKey
		for el := sh.lru.Back(); el != nil; el = el.Prev() {
			keys = append(keys, el.Value.(*mentry).key)
		}
		for _, k := range keys {
			want := modelBodies()[k]
			if peek {
				if body, ok := st.Peek(k); !ok || !bytes.Equal(body, want) || len(body) != cap(body) {
					h.fatalf("%s holds %d bytes of %v (resident %v, cap %d); the model holds dash.BuildChunkBody's, sealed", name, len(body), k, ok, cap(body))
				}
			} else {
				if !st.Contains(k) {
					h.fatalf("%s does not hold %v; the model does", name, k)
				}
				rec := httptest.NewRecorder()
				_, err := st.StreamChunk(context.Background(), rec, k.Video, k.Quality, k.Tile, k.Index, k.Layer)
				h.m.originRead(&mctx{}, k, true, func([]byte, error) {})
				if err != nil || !bytes.Equal(rec.Body.Bytes(), want) || rec.Header().Get("Content-Length") != strconv.Itoa(len(want)) {
					h.fatalf("%s wrote %d bytes of %v (Content-Length %q, err %v); the model holds dash.BuildChunkBody's", name, rec.Body.Len(), k, rec.Header().Get("Content-Length"), err)
				}
			}
			n, sum = n+1, sum+int64(len(want))
		}
	}
	if budget := 2 * m.shards[0].budget; st.Len() != n || st.Bytes() != sum || sum > budget {
		h.fatalf("%s holds %d bodies in %d resident bytes; the model's live entries are %d in %d bytes of a %d budget", name, st.Len(), st.Bytes(), n, sum, budget)
	}
}

func (h *rig) checkState() {
	if got := h.c.NodeNames(); !slices.Equal(got, h.m.ids) {
		h.fatalf("members %v; the model has %v", got, h.m.ids)
	}
	for _, id := range h.m.ids {
		if n := h.c.Node(id); n.Down() != h.m.byID[id].down {
			h.fatalf("%s down = %v; the model has %v", id, n.Down(), h.m.byID[id].down)
		}
		h.checkStore(id, h.c.Node(id).Store(), h.m.byID[id].store, true)
	}
	h.checkStore("the origin", h.origin, h.m.origin, h.m.origin.cancelable || h.final)
	snap, os := h.c.reg.Snapshot(), h.oreg.Snapshot()
	for _, pair := range [][2]map[string]int64{{snap.Counters, h.m.counter}, {snap.Gauges, h.m.gauge},
		{os.Counters, h.m.origin.ctr}, {os.Gauges, {"serve.store.bytes": h.origin.Bytes()}}} {
		for _, names := range pair {
			for name := range names {
				if got, want := pair[0][name], pair[1][name]; got != want && name != "cluster.warms" {
					h.fatalf("%s = %d; the model has %d", name, got, want)
				}
			}
		}
	}
	gets := os.Counters["serve.store.hits"] + os.Counters["serve.store.misses"] + os.Counters["serve.store.singleflight_shared"]
	if gets != h.m.originReads {
		h.fatalf("origin hits + misses + singleflight_shared = %d over %d Gets and Pulls live at entry", gets, h.m.originReads)
	}
}

// playModel runs one byte-coded scenario on a fresh cluster and the
// model. The first six bytes size the cluster; each op then reads its
// arguments off the bytes after it.
func playModel(t testing.TB, ops []byte) {
	pc := 0
	next := func() int {
		if pc++; pc > len(ops) {
			return 0
		}
		return int(ops[pc-1])
	}
	nodes, repl, maxIn := 1+next()%4, 1+next()%3, 1+next()%2
	budget, cancelable := [...]int64{64 << 10, 128 << 10, 256 << 10}[next()%3], next()%2 == 0
	obudget := [...]int64{96 << 10, 192 << 10}[next()%2]

	base := runtime.NumGoroutine()
	clock, g, v, oreg := sim.NewClock(1), &gate{}, wireVideo(), obs.NewRegistry()
	synth := serve.WithWriterSynth(serve.WriterSynth{
		Size: func(k serve.ChunkKey) (int, error) {
			g.wait(context.Background(), k)
			return dash.ChunkBodyLen(v, k.Quality, k.Tile, k.Index, k.Layer)
		},
		Write: func(w io.Writer, k serve.ChunkKey) error {
			return dash.WriteChunkBody(w, v, k.Quality, k.Tile, k.Index, k.Layer)
		},
	})
	if cancelable {
		synth = serve.WithCtxSynth(func(ctx context.Context, k serve.ChunkKey) ([]byte, error) {
			if err := g.wait(ctx, k); err != nil {
				return nil, err
			}
			return dash.BuildChunkBody(v, k.Quality, k.Tile, k.Index, k.Layer)
		})
	}
	origin := serve.New(synth, serve.WithShards(2), serve.WithBudget(obudget), serve.WithObs(oreg))
	c, err := New(origin, WithNodes(nodes), WithReplication(repl), withMaxInFlight(maxIn),
		withNodeShards(2), WithNodeBudget(budget), WithClock(clock))
	if err != nil {
		t.Fatal(err)
	}
	m := &model{clock: clock, r: repl, maxIn: maxIn, budget: budget, byID: make(map[string]*mnode),
		coal: make(map[serve.ChunkKey]*mwait), counter: make(map[string]int64), gauge: make(map[string]int64)}
	m.origin = newMStore(obudget, cancelable, &m.waiting, m.originSynth)
	for ; m.nextID < nodes; m.nextID++ {
		m.addNode("edge-" + strconv.Itoa(m.nextID))
	}
	h := &rig{t: t, c: c, gate: g, origin: origin, oreg: oreg, m: m, stacks: make([]byte, 1<<20), base: base,
		log: []string{fmt.Sprintf("ops %v: %d nodes, R=%d, %d in flight, %d-byte edges, cancelable origin %v", ops, nodes, repl, maxIn, budget, cancelable)}}
	unstall := make(chan struct{})
	h.unstall.Store(&unstall)
	defer func() { // on a failure too, so no goroutine outlives the scenario
		close(*h.unstall.Load())
		g.set(nil)
		for _, r := range h.live {
			r.cancel()
			h.letGo(r)
		}
		for _, r := range h.pinned {
			h.letGo(r)
		}
		c.Close()
	}()
	// member picks a member, one whose down state is down if there is one.
	member := func(down bool) string {
		i := next()
		for j := range m.ids {
			if id := m.ids[(i+j)%len(m.ids)]; m.byID[id].down == down || j == len(m.ids)-1 {
				return id
			}
		}
		return ""
	}
	for pc < len(ops) {
		op := next() % 16
		if len(h.live) >= 8 {
			op = 4
		}
		h.log = append(h.log, fmt.Sprintf("op %d, members %v:", op, m.ids))
		switch op {
		case 0, 1, 2, 13: // a request: op 2 holds its key at the origin first, op 13 aims it at a busy edge
			k, sink, node := modelKeys[next()%len(modelKeys)], next()%4, member(false)
			if m.held != nil && next()%2 == 0 {
				if k = *m.held; node != "" && next()%2 == 0 {
					node = Rank(k, m.ids)[0]
				}
			}
			for _, busy := range modelKeys {
				if op == 13 && len(m.ids) > 0 && m.byID[Rank(busy, m.ids)[0]].inflight >= maxIn {
					k, sink = busy, next()%3
					break
				}
			}
			if m.held != nil && k == *m.held && modelBodies()[k] == nil {
				k = modelKeys[0] // a held key no chunk has takes no second request
			}
			if op == 2 && m.held == nil {
				m.held = &k
				g.set(&k)
			}
			if w, open := m.coal[k]; sink < 3 && open && w != nil && !w.gone {
				sink = 3 // a route flight takes one follower
			}
			if sink < 3 || node != "" {
				h.request(k, sink, node, op < 2 && next()%4 == 0)
			}
		case 3: // cancel a live request
			if r := h.live; len(r) > 0 {
				i := next() % len(r)
				h.log = append(h.log, fmt.Sprintf("cancel %v sink %d", r[i].key, r[i].sink))
				r[i].cancel()
				r[i].ctx.cancel()
			}
		case 4:
			g.set(nil)
			m.release()
		case 5, 6: // kill a member that is up, or recover one that is down
			if id, kill := member(op == 6), op == 5; id != "" {
				if kill {
					c.KillNode(id)
				} else {
					c.RecoverNode(id)
				}
				if n := m.byID[id]; n.down != kill {
					n.down, m.gauge["cluster.node."+id+".up"] = kill, int64(op-5)
					if kill {
						n.store.reset()
					}
				}
			}
		case 7, 14: // op 7 adds a node under a new name or a removed one; op 14 races three AddNodes for one name
			name, racers := "", 1
			if op == 14 {
				name, racers = "racer-"+strconv.Itoa(pc), 3
			} else if len(m.removed) > 0 && next()%2 == 0 {
				name = m.removed[next()%len(m.removed)]
			}
			if len(m.ids) >= 6 {
				break
			}
			start, errs, won := make(chan struct{}), make(chan error, racers), 0
			for range racers {
				go func() {
					<-start
					_, err := c.AddNode(name)
					errs <- err
				}()
			}
			close(start)
			for range racers {
				if <-errs == nil {
					won++
				}
			}
			if won != 1 {
				h.fatalf("%d of %d AddNode(%q) calls won", won, racers, name)
			}
			if name == "" {
				name = "edge-" + strconv.Itoa(m.nextID)
				m.nextID++
			}
			m.removed = slices.DeleteFunc(m.removed, func(s string) bool { return s == name })
			m.addNode(name)
		case 8:
			if id := member(false); id != "" {
				if err := c.RemoveNode(id); err != nil {
					h.fatalf("RemoveNode(%s): %v", id, err)
				}
				n := m.byID[id]
				n.gone, n.down = true, true
				m.gauge["cluster.node."+id+".up"], m.gauge["cluster.health."+id+".alive"] = 0, 0
				m.ids = slices.DeleteFunc(m.ids, func(s string) bool { return s == id })
				delete(m.byID, id)
				m.removed = append(m.removed, id)
			}
		case 9, 10: // Put a body, mid-flight when the held key's; or Reset a store
			i, k := next()%(len(m.ids)+1), modelKeys[next()%len(modelKeys)]
			if m.held != nil && next()%2 == 0 {
				k = *m.held
			}
			st, ms := origin, m.origin
			if i < len(m.ids) {
				st, ms = c.Node(m.ids[i]).Store(), m.byID[m.ids[i]].store
			}
			if body, ok := modelBodies()[k]; op == 10 {
				st.Reset()
				ms.reset()
			} else if ok && st.Put(k, slices.Clip(bytes.Clone(body))) != ms.insert(k, body) {
				h.fatalf("Put(%v) disagrees with the model", k)
			}
		case 11: // one to three probe sweeps
			for range 1 + next()%3 {
				c.ProbeAll()
				for _, id := range slices.Clone(m.ids) {
					if n := m.byID[id]; m.allow(n) {
						m.observe(n, map[bool]error{true: ErrNodeDown}[n.down])
					}
				}
			}
		case 12:
			clock.RunUntil(clock.Now() + time.Duration(1+next()%3)*250*time.Millisecond)
		case 15: // a pinned read of the origin, the held key's or not; the pinned reads before it go once it has settled
			for _, r := range h.pinned {
				r.let = true
			}
			k := modelKeys[next()%len(modelKeys)]
			if m.held != nil && next()%2 == 0 {
				k = *m.held
			}
			if m.held != nil && k == *m.held && modelBodies()[k] == nil {
				k = modelKeys[0]
			}
			h.request(k, 4, "", false)
		}
		h.settle()
	}
	h.log = append(h.log, "release and close")
	g.set(nil)
	m.release()
	h.final = true
	h.settle()
	c.Close()
	for deadline := time.Now().Add(10 * time.Second); runtime.NumGoroutine() > base; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			h.fatalf("%d goroutines after Close, %d before the cluster", runtime.NumGoroutine(), base)
		}
	}
}

// TestClusterMatchesModel checks that New refuses a nil origin and a
// wire without a catalog, then plays seeded scenarios: requests through
// Chunk, StreamChunk (to a viewer that reads, and to one that stalls),
// a node's own Chunk and a pinned read of the origin, the origin held or not,
// canceled before or while they wait; kills, recoveries, adds (three
// racing for one name among them), removals, sheds, Puts and Resets
// mid-flight, probes and clock steps.
func TestClusterMatchesModel(t *testing.T) {
	if _, err := New(nil); err == nil {
		t.Fatal("New accepted a nil origin")
	}
	if _, err := New(&countingOrigin{}, WithWire(true)); err == nil {
		t.Fatal("New accepted a wire form without a catalog")
	}
	n := 300
	if testing.Short() || obs.RaceEnabled {
		n = 40
	}
	rng := rand.New(rand.NewSource(52))
	for range n {
		ops := make([]byte, 8+rng.Intn(120))
		rng.Read(ops)
		playModel(t, ops)
	}
}

func FuzzClusterMatchesModel(f *testing.F) {
	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) > 512 {
			t.Skip()
		}
		playModel(t, ops)
	})
}
