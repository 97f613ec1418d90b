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
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"sperke/internal/dash"
	"sperke/internal/obs"
	"sperke/internal/serve"
	"sperke/internal/transport"
)

// The model harness: one byte-coded scenario drives a cluster over a
// real origin store, in process or over the wire, and a naive model of
// both — a store is a map and an LRU list per shard, a flight the
// callers parked on it, a request a chain of callbacks, placement Rank's and
// bodies dash.BuildChunkBody's. The origin can hold one key, so requests
// park mid-flight while the scenario cancels, kills, recovers, adds,
// removes, sheds, Puts and Resets around them. A pinned read of the
// origin (StreamChunk) stalls in Write until a later pinned read has
// settled, so evictions, Resets and other misses run while it writes,
// and the bytes it writes at last must still be dash.BuildChunkBody's.
// After every step the cluster must match the model:
// outcomes and bodies, where goroutines park, the bodies resident in
// every store (so resident bytes are within budget and the sum of the
// live entries, one LRU element each; sealed, though a writer-form
// origin's are read through StreamChunk and Peeked for their seal at
// the last step only, see checkStore), and every counter, the origin
// store's hits + misses + singleflight_shared equal to its Gets and
// Pulls live at entry among them. No flight is canceled: a caller that
// leaves one it joined returns at once, and the one that opened it
// waits for its synthesis. An edge's miss Pulls from the origin, under
// a context no caller cancels, and the origin caches nothing on a
// flight a Pull leads; an origin fallback and a
// pinned read admit, on a writer-form origin as its second-sight rule
// lets them, which a burst of misses at keys no request asks for can
// switch on and a burst that reads them again off. A writer-form
// origin's synthesis parks in Write, after the rule has decided, and a
// pinned read the rule refuses parks there with no flight, streaming;
// in a burst whose Write ends a byte short every miss fails, a streamed
// one after its bytes. After Close no goroutine is left.
//
// Three scenario bits widen the cluster.
//
//   - The wire form (WithWire over a scripted faultNet) runs each
//     edge's Chunk behind its own listener, under the edge's context:
//     a router that hangs up leaves the edge's miss running, and a
//     crash (kill, RemoveNode) closes every connection and then cancels
//     that context. A killed edge refuses the dial, so it counts no
//     denial; an SVC layer of an AVC video is the edge's 400, charged to
//     it before its store is asked. Socket faults are ops: a body cut at
//     byte N, a reset before the head, and a body stalled at byte N for
//     a moment or until the edge closes. Each is charged to the edge
//     that broke it and fails over, unless bytes had reached a viewer,
//     which gets the typed transient error; a hung-up viewer is nobody's
//     fault. The router takes a wire
//     edge's resident body beside the stream, or publishes none, and a
//     body it relays from a socket reaches a replica only once whole.
//   - Pre-warm (WithPrewarm over modelPrior) queues the prior's other
//     tiles after every served walk. The worker Pulls the origin, so it
//     leaves the model origin as it found it, and Puts into the key's
//     cold, healthy owners; DrainWarms is the fence after every step,
//     unless the worker is parked on the held key, where the model parks
//     it as it parks any synthesis of that key.
//   - Herds let a route flight take any number of followers, each
//     counted under cluster.coalesced: in process, and over the wire for
//     a body the edge can cache, whose flight never publishes none.
//
// The model never guesses which of two racing goroutines won. One key
// is held at a time, so a release wakes work on that key alone; a
// route flight takes one follower unless the scenario herds, and then
// its leader is not canceled while two follow, so a failed leader hands
// the key to one walker; and a held key no chunk has takes no second
// request. The pre-warm prior answers only in steps that serve one
// walk, leaves out a held key something else waits on (or a stalled
// viewer's walk would park on), and falls silent while the worker is
// parked, which no request of that key joins. Over the wire a crash
// waits while two walks wait on the edge; a Reset waits while
// the held key's flight is pending in that store, which would leave a
// release two flights of the key to race; and a reset goes before the
// head, as a reset can discard what the router has not read.
// cluster.warms goes unchecked: a release can wake a co-owner's own
// miss beside the walk that warms it, and which lands first decides
// whether the Put counts. The edges' dash.server.* instruments go
// unchecked too.
//
// Three exact equalities of the cluster are laws here:
//
//   - a herd of N cold opens of one key costs one origin fetch, and
//     N-1 requests count as coalesced (cluster.coalesced, every step);
//   - an edge's miss and a pre-warm cache nothing at a store origin
//     (the origin's residents, every step);
//   - the pre-warmer fetches each predicted neighbour once and warms
//     each cold owner once (cluster.prewarm_fetches, cluster.prewarms).

// modelKeys are addresses on wireVideo with bodies of 14 to 72 KB, so
// a few fill a shard's slice and the largest may fit none, and last an
// SVC layer of an AVC video, which every fetch fails on.
var modelKeys = func() (ks []serve.ChunkKey) {
	for tile, q := range []int{0, 1, 0, 1, 0, 2, 1} {
		ks = append(ks, serve.ChunkKey{Video: "wire", Quality: q, Tile: tile, Index: tile / 3})
	}
	return append(ks, serve.ChunkKey{Video: "wire", Tile: 7, Index: 2, Layer: true})
}()

// burstKeys are wireVideo's other chunks of the modelKeys' qualities,
// the 233 a burst of misses reads in turn: keys no request asks for,
// so the origin store can evict bodies nobody hit and turn its
// second-sight rule on; a burst that reads its last burstLen again
// brings refused keys back, which can switch the rule off.
var burstKeys = func() (ks []serve.ChunkKey) {
	for idx := range 10 {
		for tile := range 8 {
			for q := range 3 {
				if k := (serve.ChunkKey{Video: "wire", Quality: q, Tile: tile, Index: idx}); !slices.Contains(modelKeys, k) {
					ks = append(ks, k)
				}
			}
		}
	}
	return ks
}()

// burstLen is the origin misses one burst op makes: with 48 to 96 KiB
// a shard, a burst or two evict 48 bodies a shard never hit.
const burstLen = 64

var (
	modelBodyMu sync.Mutex
	modelBodyAt = map[serve.ChunkKey][]byte{}
)

// modelBody is dash.BuildChunkBody's body for k, nil for none.
func modelBody(k serve.ChunkKey) []byte {
	modelBodyMu.Lock()
	defer modelBodyMu.Unlock()
	b, ok := modelBodyAt[k]
	if !ok {
		b, _ = dash.BuildChunkBody(wireVideo(), k.Quality, k.Tile, k.Index, k.Layer)
		modelBodyAt[k] = b
	}
	return b
}

var (
	errModelShed  = &dash.Error{Kind: dash.KindOverload, Err: dash.ErrUnavailable}
	errModelWire  = errors.New("model: the edge's socket failed")
	errModelGone  = fmt.Errorf("model: %w", dash.ErrViewerGone)
	errModelShort = errors.New("model: the origin's Write ended a byte short")
)

func bodyOf(k serve.ChunkKey) ([]byte, error) {
	if b := modelBody(k); b != nil {
		return b, nil
	}
	return nil, errors.New("model: no such chunk")
}

// modelPrior is the harness's fixed crowd prior: at chunk index i it
// ranks tiles 3i+2 and 3i first, on wireVideo's eight, so a pre-warm
// lands on a model key, a neighbour of one, or a layer no chunk has.
// The rig switches it on per step and names a tile to leave out.
type modelPrior struct{ on, skip atomic.Int64 }

const prewarmFanout = 2

func (p *modelPrior) TopTilesAt(index, k int) []int {
	var out []int
	for _, t := range []int{(3*index + 2) % 8, 3 * index % 8}[:min(k, 2)] {
		if p.on.Load() == 1 && int64(t) != p.skip.Load() {
			out = append(out, t)
		}
	}
	return out
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

// mshard is a shard, and on a writer-form store the memory of its
// second-sight rule: the keys last missed in each of 16 sets, newest
// first, four at most (64 slots: both origin budgets give a shard less
// than 64 × 32 KiB), and its last 64 outcomes, true for a body evicted,
// or a refused key dropped from its set, without a hit.
type mshard struct {
	at            map[serve.ChunkKey]*list.Element // of *mentry
	lru           list.List
	bytes, budget int64
	seen          map[uint64][]mseen
	outcomes      []bool
}

// mseen is a key in a set, and whether the rule refused it.
type mseen struct {
	key     serve.ChunkKey
	refused bool
}

type mentry struct {
	key  serve.ChunkKey
	body []byte
	hit  bool
}

type mflight struct {
	resets  int
	waiters []*mwait
	shared  bool // a waiter joined
}

// mstore is serve.Store with two shards, as the rig builds every store,
// in the body form (WithBodySynth) or the writer form. A Reset empties
// a shard's second-sight memory with its bodies.
type mstore struct {
	bodyForm bool
	shards   [2]*mshard
	flights  map[serve.ChunkKey]*mflight
	waiting  *int // the model's count of callers parked on flights
	resets   int
	synth    func(key serve.ChunkKey, done func([]byte, error))
	ctr      map[string]int64 // serve.store.* counters
}

func newMStore(budget int64, bodyForm bool, waiting *int, synth func(serve.ChunkKey, func([]byte, error))) *mstore {
	s := &mstore{bodyForm: bodyForm, waiting: waiting, synth: synth, ctr: make(map[string]int64)}
	s.shards = [2]*mshard{{budget: budget / 2}, {budget: budget / 2}}
	s.reset()
	return s
}

func (s *mstore) shard(k serve.ChunkKey) *mshard { return s.shards[k.Fold(14695981039346656037)&1] }

func (s *mstore) has(k serve.ChunkKey) bool { return s.shard(k).at[k] != nil }

func (s *mstore) reset() {
	for _, sh := range s.shards {
		sh.at, sh.bytes = make(map[serve.ChunkKey]*list.Element), 0
		sh.lru.Init()
		sh.seen, sh.outcomes = make(map[uint64][]mseen), nil
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
	sh.at[k] = sh.lru.PushFront(&mentry{key: k, body: body})
	for sh.bytes += int64(len(body)); sh.bytes > sh.budget && sh.lru.Len() > 1; s.ctr["serve.store.evictions"]++ {
		e := sh.lru.Remove(sh.lru.Back()).(*mentry)
		delete(sh.at, e.key)
		sh.bytes -= int64(len(e.body))
		sh.note(!e.hit)
	}
	return true
}

func (sh *mshard) note(unhit bool) {
	if sh.outcomes = append(sh.outcomes, unhit); len(sh.outcomes) > 64 {
		sh.outcomes = sh.outcomes[1:]
	}
}

// admits is a writer-form store's second-sight rule for a miss of k,
// which it notes first in k's set: a refused key found there is a hit
// outcome, one that drops out of a full set an unhit one. The body goes
// in if the key was in its set, if it is too large for the shard (and
// uncacheable), or if fewer than 48 of the shard's last 64 outcomes
// were unhit. k goes to the front of its set, marked refused if it was.
func (s *mstore) admits(k serve.ChunkKey, body []byte) bool {
	sh, set := s.shard(k), k.Fold(14695981039346656037)*0x9e3779b97f4a7c15>>60
	ks := sh.seen[set]
	i := slices.IndexFunc(ks, func(m mseen) bool { return m.key == k })
	seen := i >= 0
	if !seen && len(ks) == 4 {
		i = 3
	}
	if i >= 0 && ks[i].refused {
		sh.note(!seen)
	}
	if i >= 0 {
		ks = slices.Delete(ks, i, i+1)
	}
	unhit, size := 0, int64(len(body))
	for _, u := range sh.outcomes {
		if u {
			unhit++
		}
	}
	admit := seen || size > sh.budget || unhit < 48
	sh.seen[set] = slices.Insert(ks, 0, mseen{k, !admit})
	return admit
}

// get is a Get, with pin a pinned read, and without admit a Pull: a
// flight it leads caches nothing, whoever joins it. On a writer-form
// store a miss whose Size fails opens no flight, and a Get's or pinned
// read's miss runs admits when it is found; its flight caches its body
// if admits let it in or a caller joined it, as a body-form store's
// always does. A caller that joined a flight leaves it when its context
// ends; the flight runs on. A pinned miss admits refuses opens no
// flight: it
// synthesizes alone, caches nothing, and has noted k, so a read of k
// while it streams is a second sight.
func (s *mstore) get(ctx *mctx, k serve.ChunkKey, admit, pin bool, done func([]byte, error)) {
	if ctx.done {
		done(nil, context.Canceled)
		return
	}
	if el := s.shard(k).at[k]; el != nil {
		s.shard(k).lru.MoveToFront(el)
		s.ctr["serve.store.hits"]++
		e := el.Value.(*mentry)
		e.hit = true
		done(e.body, nil)
		return
	}
	if fl := s.flights[k]; fl != nil {
		fl.shared = true
		s.ctr["serve.store.singleflight_shared"]++
		w := &mwait{done: done}
		fl.waiters, *s.waiting = append(fl.waiters, w), *s.waiting+1
		ctx.after(func() {
			if !w.gone {
				w.gone, *s.waiting = true, *s.waiting-1
				done(nil, context.Canceled)
			}
		})
		return
	}
	s.ctr["serve.store.misses"]++
	admitted := true
	if !s.bodyForm {
		body := modelBody(k)
		if body == nil { // Size fails
			done(bodyOf(k))
			return
		}
		if admit {
			admitted = s.admits(k, body)
		}
		if pin && !admitted {
			s.synth(k, done)
			return
		}
	}
	fl := &mflight{resets: s.resets}
	s.flights[k] = fl
	s.synth(k, func(body []byte, err error) {
		if s.flights[k] == fl {
			delete(s.flights, k)
		}
		if admit && err == nil && fl.resets == s.resets && (admitted || fl.shared) {
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

type mnode struct {
	id         string
	store      *mstore
	down, gone bool
	inflight   int
	breaker    *transport.Breaker
	last       transport.BreakerState

	// Over the wire: the incarnation's context, which a crash cancels;
	// the handlers it still runs; the walks waiting on its head; the
	// relays parked in a body it stalled, and its goroutines parked
	// writing one.
	ictx     *mctx
	handlers int
	exch     []*func()
	relays   []*func()
	stalls   int
}

// mfault is the socket fault a request's first edge breaks its response
// with: a reset before its head, or its body's end after at bytes, at
// once, after a hold or, with park, once the edge closes.
type mfault struct {
	edge              string
	at                int
	park, hold, reset bool
}

// rflight is a route flight: the followers attached to it.
type rflight struct{ follow []*mwait }

// req is one request: the model's run of it, and the cluster's answer.
type req struct {
	ctx    *mctx
	done   bool
	body   []byte
	err    error
	key    serve.ChunkKey
	sink   int      // 0: Chunk; 1: StreamChunk; 2: StreamChunk to a viewer that stalls; 3: a node's own Chunk; 4: a pinned read of the origin; 5: StreamChunk to a viewer that hangs up
	lead   *rflight // the route flight it opened
	fault  *mfault
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
	wire, herd     bool
	ids, removed   []string
	byID           map[string]*mnode
	all            []*mnode // every node built, removed ones too
	nextID         int
	origin         *mstore
	coal           map[serve.ChunkKey]*rflight
	held           *serve.ChunkKey
	short          bool      // a writer-form origin's Write ends a byte short
	gate           []*func() // the held syntheses, each resuming its flight
	originReads    int64     // origin Gets and Pulls live at entry
	waiting        int       // callers parked on a store's flight
	following      int       // callers parked on a route flight
	handlers       map[serve.ChunkKey]int
	counter, gauge map[string]int64

	// The pre-warmer: nil prior for none.
	prior         *modelPrior
	queue         []serve.ChunkKey
	pending       map[serve.ChunkKey]bool
	warmCtx       *mctx
	worker, wpark bool // started; parked on the held key
}

// originSynth is the origin's synthesis, which parks on the held key: a
// writer-form origin's Write, after the second-sight rule has decided.
func (o *model) originSynth(k serve.ChunkKey, done func([]byte, error)) {
	if o.short {
		done(nil, errModelShort)
		return
	}
	if o.held == nil || *o.held != k {
		done(bodyOf(k))
		return
	}
	resume := func() { done(bodyOf(k)) }
	o.gate = append(o.gate, &resume)
}

func (o *model) release() {
	gs := o.gate
	o.gate, o.held = nil, nil
	for _, resume := range gs {
		(*resume)()
	}
}

// originRead is a read of the origin store: its Chunk, a Get, with pin
// a pinned read, or with admit false a Pull.
func (o *model) originRead(ctx *mctx, k serve.ChunkKey, admit, pin bool, done func([]byte, error)) {
	if !ctx.done {
		o.originReads++
	}
	o.origin.get(ctx, k, admit, pin, done)
}

func (o *model) addNode(id string) {
	n := &mnode{id: id, ictx: &mctx{}, breaker: transport.NewBreaker(o.clock, transport.BreakerConfig{
		FailureThreshold: 3, Cooldown: 500 * time.Millisecond, ProbeSuccesses: 2})}
	n.store = newMStore(o.budget, true, &o.waiting, func(k serve.ChunkKey, done func([]byte, error)) {
		o.counter["cluster.node."+id+".misses"]++
		o.counter["cluster.origin_fetches"]++
		o.originRead(&mctx{}, k, false, false, done)
	})
	o.ids, o.byID[id], o.all = append(o.ids, id), n, append(o.all, n)
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

// healthy is a node a warm may go to: alive, and not on trial.
func (n *mnode) healthy() bool {
	return !n.down && !n.gone && n.breaker.State() == transport.BreakerClosed
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
		n.store.get(ctx, k, true, false, func(b []byte, err error) {
			stop()
			release()
			done(b, err)
		})
	}
}

// exchange is a walk's request to an edge. In process it is the node's
// Chunk under the caller's context. Over the wire the edge's handler
// runs it under the edge's own: a caller that leaves returns at once
// and leaves the handler running, and a crash fails the walk before it
// cancels the handler.
func (o *model) exchange(n *mnode, r *req, k serve.ChunkKey, done func([]byte, error)) {
	switch {
	case !o.wire:
		o.nodeChunk(n, r.ctx, k, done)
		return
	case n.down, modelBody(k) == nil: // a refused dial; the edge's 400
		done(nil, errModelWire)
		return
	}
	waiting, stop, fail := true, func() {}, func() {}
	end := func() bool {
		if !waiting {
			return false
		}
		waiting = false
		stop()
		n.exch = slices.DeleteFunc(n.exch, func(f *func()) bool { return f == &fail })
		return true
	}
	fail = func() {
		if end() {
			done(nil, errModelWire)
		}
	}
	n.exch = append(n.exch, &fail)
	n.handlers++
	o.handlers[k]++
	stop = r.ctx.after(func() {
		if end() {
			done(nil, context.Canceled)
		}
	})
	o.nodeChunk(n, n.ictx, k, func(b []byte, err error) {
		n.handlers--
		o.handlers[k]--
		if f := r.fault; f != nil && f.edge == n.id && f.reset && err == nil {
			r.fault, b, err = nil, nil, errModelWire // the head never came
		}
		if end() {
			done(b, err)
		}
	})
}

// crash ends a wire edge's process: every connection closes, which
// fails the walks waiting on it and the relays it stalled, and then its
// handlers' context is canceled.
func (o *model) crash(n *mnode) {
	if !o.wire {
		return
	}
	xs, rs := n.exch, n.relays
	n.exch, n.relays, n.stalls = nil, nil, 0
	for _, f := range append(xs, rs...) {
		(*f)()
	}
	n.ictx.cancel()
}

// crashable reports whether a crash of n leaves nothing to chance: no
// two walks fail over from it at once.
func (o *model) crashable(n *mnode) bool {
	return !o.wire || len(n.exch)+len(n.relays) <= 1
}

func (o *model) route(r *req, k serve.ChunkKey) {
	o.counter["cluster.requests"]++
	fl := o.coal[k]
	if fl == nil {
		fl = &rflight{}
		o.coal[k], r.lead = fl, fl
		o.walk(r, k, fl, func(b []byte, err error) {
			o.publishFlight(k, fl, nil, err)
			r.finish(b, err)
		})
		return
	}
	if r.ctx.done {
		r.finish(nil, context.Canceled)
		return
	}
	w := &mwait{done: func(b []byte, err error) {
		if err != nil || b == nil {
			o.walk(r, k, nil, r.finish)
			return
		}
		o.counter["cluster.coalesced"]++
		o.deliver(r, b, r.finish)
	}}
	fl.follow, o.following = append(fl.follow, w), o.following+1
	r.ctx.after(func() {
		if !w.gone {
			w.gone, o.following = true, o.following-1
			r.finish(nil, context.Canceled)
		}
	})
}

// following reports fl's followers still waiting.
func (fl *rflight) following() (n int) {
	for _, w := range fl.follow {
		if !w.gone {
			n++
		}
	}
	return n
}

// publishFlight closes k's route flight fl, if it is still open,
// handing its followers the body or, with none, sending them on walks
// of their own.
func (o *model) publishFlight(k serve.ChunkKey, fl *rflight, body []byte, err error) {
	if fl == nil || o.coal[k] != fl {
		return
	}
	delete(o.coal, k)
	for _, w := range fl.follow {
		if !w.gone {
			w.gone, o.following = true, o.following-1
			w.done(body, err)
		}
	}
}

// deliver hands a whole body to r's viewer, which may hang up.
func (o *model) deliver(r *req, body []byte, done func([]byte, error)) {
	if r.sink == 5 {
		done(nil, errModelGone)
		return
	}
	done(body, nil)
}

func (o *model) walk(r *req, k serve.ChunkKey, fl *rflight, done func([]byte, error)) {
	byID := maps.Clone(o.byID) // the walk's snapshot
	ranked := Rank(k, o.ids)
	owners := ranked[:min(o.r, len(ranked))]
	var try func(int)
	try = func(rank int) {
		for ; rank < len(ranked) && !o.allow(byID[ranked[rank]]); rank++ {
		}
		if rank == len(ranked) {
			o.fallback(r, k, fl, done)
			return
		}
		edge := byID[ranked[rank]]
		o.exchange(edge, r, k, func(body []byte, err error) {
			switch {
			case err == nil:
			case r.ctx.done:
				done(nil, err)
				return
			case isShed(err):
				o.counter["cluster.sheds"]++
				o.fallback(r, k, fl, done)
				return
			default:
				o.observe(edge, err)
				try(rank + 1)
				return
			}
			// A wire edge's body is the one resident beside its stream;
			// with none the body reaches the replicas once relayed whole.
			kept := !o.wire || edge.store.has(k)
			warm := func() {
				for _, id := range owners {
					if t := byID[id]; id != edge.id && t.healthy() {
						t.store.insert(k, body)
					}
				}
			}
			if kept {
				warm()
				o.publishFlight(k, fl, body, nil)
			} else {
				o.publishFlight(k, fl, nil, nil)
			}
			broken := func(n int) { // the edge's socket ended the body after n bytes
				o.observe(edge, errModelWire)
				if r.sink != 0 && n > 0 {
					done(nil, errModelWire)
					return
				}
				try(rank + 1)
			}
			f := r.fault
			if f != nil && f.edge == edge.id {
				r.fault = nil
			} else {
				f = nil
			}
			switch {
			case f != nil && f.park:
				edge.stalls++
				var stop func()
				relay := func() {
					stop()
					broken(f.at)
				}
				edge.relays = append(edge.relays, &relay)
				stop = r.ctx.after(func() {
					edge.relays = slices.DeleteFunc(edge.relays, func(x *func()) bool { return x == &relay })
					done(nil, context.Canceled)
				})
			case f != nil && !f.hold:
				broken(f.at)
			case r.sink == 5:
				done(nil, errModelGone)
			default:
				if !kept {
					warm()
				}
				o.observe(edge, nil)
				if rank > 0 {
					o.counter["cluster.reroutes"]++
				}
				o.enqueuePrewarms(k)
				done(body, nil)
			}
		})
	}
	try(0)
}

func (o *model) fallback(r *req, k serve.ChunkKey, fl *rflight, done func([]byte, error)) {
	o.counter["cluster.origin_fallbacks"]++
	o.originRead(r.ctx, k, true, false, func(body []byte, err error) {
		if err != nil {
			o.counter["cluster.origin_errors"]++
			done(nil, err)
			return
		}
		o.counter["cluster.origin_fetches"]++
		o.publishFlight(k, fl, body, nil)
		o.enqueuePrewarms(k)
		o.deliver(r, body, done)
	})
}

// enqueuePrewarms queues the prior's other tiles at k's index, each
// once while it is pending, and runs the worker.
func (o *model) enqueuePrewarms(k serve.ChunkKey) {
	if o.prior == nil {
		return
	}
	for _, tile := range o.prior.TopTilesAt(k.Index, prewarmFanout) {
		pk := k
		pk.Tile = tile
		if tile != k.Tile && !o.pending[pk] {
			o.pending[pk], o.worker = true, true
			o.queue = append(o.queue, pk)
		}
	}
	o.runWarms()
}

// runWarms is the worker: it runs the queue in order until it empties
// or a pull parks on the held key.
func (o *model) runWarms() {
	for !o.wpark && len(o.queue) > 0 {
		k := o.queue[0]
		o.queue = o.queue[1:]
		var targets []*mnode
		ranked := Rank(k, o.ids)
		for _, id := range ranked[:min(o.r, len(ranked))] {
			if n := o.byID[id]; n.healthy() && !n.store.has(k) {
				targets = append(targets, n)
			}
		}
		if len(targets) == 0 || o.coal[k] != nil {
			delete(o.pending, k)
			continue
		}
		o.wpark = true
		o.originRead(o.warmCtx, k, false, false, func(body []byte, err error) {
			o.wpark = false
			delete(o.pending, k)
			if err == nil {
				o.counter["cluster.prewarm_fetches"]++
				for _, t := range targets {
					if !t.down && t.store.insert(k, body) {
						o.counter["cluster.prewarms"]++
					}
				}
			}
			o.runWarms()
		})
	}
}

// busy reports whether anything but the pre-warmer waits on k: a
// request, or a wire handler whose walk has left.
func (h *rig) busy(k serve.ChunkKey) bool {
	return h.m.handlers[k] > 0 || slices.ContainsFunc(h.live, func(r *req) bool { return !r.done && r.key == k })
}

// stepClock is the scenario's clock, stepped by op 12. It is read from
// request goroutines a closing socket wakes, which the race detector sees
// no ordering through, so it is an atomic.
type stepClock struct{ now atomic.Int64 }

func (c *stepClock) Now() time.Duration { return time.Duration(c.now.Load()) }

// gate holds the origin's synthesis of one key until released.
type gate struct {
	held   atomic.Pointer[heldKey]
	parked atomic.Int32 // syntheses waiting on the held key
}

type heldKey struct {
	key  serve.ChunkKey
	open chan struct{}
}

// wait blocks a synthesis of the held key until the key is released.
func (g *gate) wait(k serve.ChunkKey) {
	if h := g.held.Load(); h != nil && h.key == k {
		g.parked.Add(1)
		defer g.parked.Add(-1)
		<-h.open
	}
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

// parkedAt matches a goroutine parked in route's select, a follower,
// or in Store.get's, a flight's waiter (behind Get or StreamChunk): its
// stack tops out there, under any runtime frames (gopark, selectgo) a
// traceback setting shows.
var parkedAt = regexp.MustCompile(`(?m)^goroutine \d+ \[select[^\]]*\]:\n(?:runtime\.[^\n]*\n\t[^\n]*\n)*sperke/internal/(cluster\.\(\*Cluster\)\.route|serve\.\(\*Store\)\.get)\(`)

// parked counts the process's route followers and flight waiters; the
// wire edges' goroutines that wait on a socket — accept loops, and
// connection loops reading a request or writing to a router that has
// not read yet; the edges' writes parked in a stalled body; and the
// relays waiting on one, from a dump of every goroutine into buf
// (1 MiB holds any test's).
func parked(buf []byte) (route, store, sockets, stalls, relays int) {
	dump := buf[:runtime.Stack(buf, true)]
	for _, m := range parkedAt.FindAllSubmatch(dump, -1) {
		if m[1][0] == 'c' {
			route++
		} else {
			store++
		}
	}
	for _, g := range bytes.Split(dump, []byte("\n\n")) {
		switch {
		case bytes.Contains(g, []byte("cluster.(*scriptConn).Write(")) && bytes.Contains(g, []byte(" [chan receive")):
			stalls++
		case !bytes.Contains(g, []byte(" [IO wait")):
		case bytes.Contains(g, []byte("cluster.(*edge")):
			sockets++
		case bytes.Contains(g, []byte("cluster.pump(")):
			relays++
		}
	}
	return route, store, sockets, stalls, relays
}

type rig struct {
	t       testing.TB
	c       *Cluster
	gate    *gate
	origin  *serve.Store
	oreg    *obs.Registry
	fnet    *faultNet
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
// read's at its own resume, any other at the end of the step its first
// Write comes in.
type idleViewer struct {
	*httptest.ResponseRecorder
	h      *rig
	resume chan struct{}
}

func (v idleViewer) Write(p []byte) (int, error) {
	if v.resume == nil {
		if v.Body.Len() > 0 {
			return v.ResponseRecorder.Write(p)
		}
		v.resume = *v.h.unstall.Load()
	}
	v.h.stalled.Add(1)
	defer v.h.stalled.Add(-1)
	<-v.resume
	return v.ResponseRecorder.Write(p)
}

// goneViewer hangs up before the first byte reaches it.
type goneViewer struct{ *httptest.ResponseRecorder }

func (goneViewer) Write([]byte) (int, error) { return 0, syscall.EPIPE }

func (h *rig) fatalf(format string, args ...any) {
	h.t.Helper()
	h.t.Fatalf("%s\n%s", strings.Join(h.log, "\n"), fmt.Sprintf(format, args...))
}

func (h *rig) request(k serve.ChunkKey, sink int, node string, canceled bool, fault *mfault) {
	ctx, cancel := context.WithCancel(context.Background())
	r := &req{ctx: &mctx{done: canceled}, key: k, sink: sink, fault: fault, cancel: cancel, out: make(chan struct{})}
	if sink == 4 {
		r.resume = make(chan struct{})
	}
	if canceled {
		cancel()
	}
	h.log = append(h.log, fmt.Sprintf("request %v sink %d node %q canceled %v fault %+v", k, sink, node, canceled, fault))
	h.live = append(h.live, r)
	n, rec, resume := h.c.Node(node), httptest.NewRecorder(), r.resume
	go func() {
		defer close(r.out)
		switch sink {
		case 0:
			r.got, r.gotErr = h.c.Chunk(ctx, k.Video, k.Quality, k.Tile, k.Index, k.Layer)
		case 1, 2, 5:
			w := http.ResponseWriter(rec)
			if sink == 2 {
				w = idleViewer{rec, h, nil}
			} else if sink == 5 {
				w = goneViewer{rec}
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
	case 4:
		h.m.originRead(r.ctx, k, true, true, r.finish)
	default:
		h.m.route(r, k)
	}
}

// settle waits until the cluster is where the model is: the requests it
// finished have returned (a stalled viewer's waits in Write), those it
// parked are parked where it has them, and no other goroutine runs, so
// a cancel's context.AfterFunc has done its work. Then it lets the
// stalled viewers go, fences the pre-warmer and checks that the two
// agree.
func (h *rig) settle() {
	deadline := time.Now().Add(10 * time.Second)
	wait := func(r *req) {
		h.letGo(r)
		select {
		case <-r.out:
		case <-time.After(time.Until(deadline)):
			h.fatalf("a %v request (sink %d) the model finished (%v) has not returned", r.key, r.sink, r.err)
		}
		if ref := modelBody(r.key); errClass(r.gotErr) != errClass(r.err) ||
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
	m := h.m
	inWrite := len(stalled) + len(h.pinned)
	wantRoute, wantStore, wantGate := m.following, m.waiting, len(m.gate)
	extra, wantStalls, wantRelays := 0, 0, 0 // the pre-warmer and the wire edges' handlers; their stalled writes, and the relays parked on those
	if m.worker {
		extra++
	}
	for _, n := range m.all {
		extra += n.handlers
		wantStalls += n.stalls
		wantRelays += len(n.relays)
	}
	extra += wantStalls
	for {
		route, store, sockets, stalls, relays := 0, 0, 0, 0, 0
		if m.wire || wantRoute+wantStore > 0 {
			route, store, sockets, stalls, relays = parked(h.stacks)
		}
		gate := int(h.gate.parked.Load())
		if route == wantRoute && store == wantStore && gate == wantGate && stalls == wantStalls && relays == wantRelays && int(h.stalled.Load()) == inWrite &&
			runtime.NumGoroutine() <= h.base+len(live)+inWrite+extra+sockets {
			break
		}
		if time.Now().After(deadline) {
			h.fatalf("parked: %d in route, %d on a store flight, %d at the origin, %d in Write, %d goroutines; the model has %d, %d, %d, %d, %d", route, store, gate, h.stalled.Load(), runtime.NumGoroutine(), wantRoute, wantStore, wantGate, inWrite, h.base+len(live)+inWrite+extra+sockets)
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
	if m.prior != nil && !m.wpark {
		h.drainWarms()
	}
	h.checkState()
}

// drainWarms is the pre-warm fence, DrainWarms bounded at 10 s.
func (h *rig) drainWarms() {
	done := make(chan struct{})
	go func() {
		h.c.DrainWarms()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		h.fatalf("DrainWarms has not returned")
	}
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
	for i, target := range []error{nil, context.Canceled, ErrNodeDown, dash.ErrUnavailable, dash.ErrViewerGone} {
		if errors.Is(err, target) {
			return i
		}
	}
	return -1
}

// checkStore compares a store's residents with the model's: each must
// hold dash.BuildChunkBody's bytes. With peek it Peeks them, which also
// shows each sealed (len == cap). Until the last step a writer-form
// origin's residents are read instead through StreamChunk, which checks
// the pinned hit's Content-Length; those reads are hits, which the
// model counts as origin Gets and which mark each body hit for the
// second-sight record. It reads each shard's oldest first, so the hits
// leave the LRU order as it was.
func (h *rig) checkStore(name string, st *serve.Store, m *mstore, peek bool) {
	n, sum := 0, int64(0)
	for _, sh := range m.shards {
		var keys []serve.ChunkKey
		for el := sh.lru.Back(); el != nil; el = el.Prev() {
			keys = append(keys, el.Value.(*mentry).key)
		}
		for _, k := range keys {
			want := modelBody(k)
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
				h.m.originRead(&mctx{}, k, true, true, func([]byte, error) {})
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
	h.checkStore("the origin", h.origin, h.m.origin, h.m.origin.bodyForm || h.final)
	snap, os := h.c.reg.Snapshot(), h.oreg.Snapshot()
	for _, pair := range [][2]map[string]int64{{snap.Counters, h.m.counter}, {snap.Gauges, h.m.gauge},
		{os.Counters, h.m.origin.ctr}, {os.Gauges, {"serve.store.bytes": h.origin.Bytes()}}} {
		for _, names := range pair {
			for name := range names {
				if got, want := pair[0][name], pair[1][name]; got != want && name != "cluster.warms" && !strings.HasPrefix(name, "dash.") {
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
// model. The first six bytes size the cluster, and four of them carry
// a bit more each: byte 2's bits 1-2 both set choose the wire, byte 3's
// quotient by 3 odd turns the pre-warmer on, byte 4's bit 2 lets
// flights herd, and byte 5's bit 1 adds the burst op, the last op
// number. Each op then reads its arguments off the bytes after it.
func playModel(t testing.TB, ops []byte) {
	pc := 0
	next := func() int {
		if pc++; pc > len(ops) {
			return 0
		}
		return int(ops[pc-1])
	}
	nodes, repl := 1+next()%4, 1+next()%3
	b := next()
	maxIn, wire := 1+b%2, b&6 == 6
	b = next()
	budget, prewarm := [...]int64{64 << 10, 128 << 10, 256 << 10}[b%3], b/3%2 == 1
	b = next()
	bodyOrigin, herd := b%2 == 0, b&4 != 0
	b = next()
	obudget, burst := [...]int64{96 << 10, 192 << 10}[b%2], b&2 != 0

	base := runtime.NumGoroutine()
	clock, g, v, oreg := &stepClock{}, &gate{}, wireVideo(), obs.NewRegistry()
	var short atomic.Bool // set through a short burst
	synth := serve.WithWriterSynth(serve.WriterSynth{
		Size: func(k serve.ChunkKey) (int, error) {
			return dash.ChunkBodyLen(v, k.Quality, k.Tile, k.Index, k.Layer)
		},
		Write: func(w io.Writer, k serve.ChunkKey) error {
			g.wait(k)
			if short.Load() {
				body := modelBody(k)
				_, err := w.Write(body[:len(body)-1])
				return err
			}
			return dash.WriteChunkBody(w, v, k.Quality, k.Tile, k.Index, k.Layer)
		},
	})
	if bodyOrigin {
		synth = serve.WithBodySynth(func(k serve.ChunkKey) ([]byte, error) {
			g.wait(k)
			return dash.BuildChunkBody(v, k.Quality, k.Tile, k.Index, k.Layer)
		})
	}
	origin := serve.New(synth, serve.WithShards(2), serve.WithBudget(obudget), serve.WithObs(oreg))
	m := &model{clock: clock, r: repl, maxIn: maxIn, budget: budget, wire: wire, herd: herd, byID: make(map[string]*mnode),
		coal: make(map[serve.ChunkKey]*rflight), handlers: make(map[serve.ChunkKey]int),
		counter: make(map[string]int64), gauge: make(map[string]int64)}
	opts := []Option{WithNodes(nodes), WithReplication(repl), withMaxInFlight(maxIn),
		withNodeShards(2), WithNodeBudget(budget), WithClock(clock)}
	var fnet *faultNet
	if wire {
		fnet = &faultNet{scripted: true}
		opts = append(opts, withFaults(fnet), WithCatalog(wireCatalog(t, v)))
	}
	if prewarm {
		m.prior, m.pending, m.warmCtx = &modelPrior{}, make(map[serve.ChunkKey]bool), &mctx{}
		opts = append(opts, WithPrewarm(m.prior, prewarmFanout))
	}
	c, err := New(origin, opts...)
	if err != nil {
		t.Fatal(err)
	}
	m.origin = newMStore(obudget, bodyOrigin, &m.waiting, m.originSynth)
	for ; m.nextID < nodes; m.nextID++ {
		m.addNode("edge-" + strconv.Itoa(m.nextID))
	}
	h := &rig{t: t, c: c, gate: g, origin: origin, oreg: oreg, fnet: fnet, m: m, stacks: make([]byte, 1<<20), base: base,
		log: []string{fmt.Sprintf("ops %v: %d nodes, R=%d, %d in flight, %d-byte edges, body-form origin %v, wire %v, pre-warm %v, herds %v, bursts %v",
			ops, nodes, repl, maxIn, budget, bodyOrigin, wire, prewarm, herd, burst)}}
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
	// avoid is k, or another key when the held key must take no request
	// of it: one no chunk has, or one the parked pre-warmer waits on.
	avoid := func(k serve.ChunkKey) serve.ChunkKey {
		if m.held != nil && k == *m.held && (modelBody(k) == nil || m.wpark) {
			if k = modelKeys[0]; k == *m.held {
				k = modelKeys[1]
			}
		}
		return k
	}
	// prewarmFor lets the prior answer the one walk a request step can
	// serve, leaving out the tile that would pre-warm a held key
	// something else waits on, or one a stalled viewer's walk would
	// park the worker on only once the step's check has passed.
	prewarmFor := func(k serve.ChunkKey, sink int) {
		if m.prior == nil || m.wpark {
			return
		}
		m.prior.on.Store(1)
		m.prior.skip.Store(-1)
		if hk := m.held; hk != nil && hk.Quality == k.Quality && hk.Index == k.Index && hk.Layer == k.Layer && (sink == 2 || h.busy(*hk)) {
			m.prior.skip.Store(int64(hk.Tile))
		}
	}
	nops, sinks := 16, 4
	if wire {
		nops, sinks = 20, 5
	}
	if burst {
		nops++
	}
	bursts := 0 // burstKeys read so far
	for pc < len(ops) {
		op := next() % nops
		if burst && op == nops-1 {
			op = 20
		}
		if len(h.live) >= 8 {
			op = 4
		}
		if m.prior != nil {
			m.prior.on.Store(0)
		}
		h.log = append(h.log, fmt.Sprintf("op %d, members %v:", op, m.ids))
		switch op {
		case 0, 1, 2, 13: // a request: op 2 holds its key at the origin first, op 13 aims it at a busy edge
			k, sink, node := modelKeys[next()%len(modelKeys)], next()%sinks, member(false)
			if sink == 4 {
				sink = 5
			}
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
			k = avoid(k)
			if op == 2 && m.held == nil {
				m.held = &k
				g.set(&k)
			}
			if fl := m.coal[k]; sink != 3 && fl != nil && fl.following() > 0 && (!herd || wire && int64(len(modelBody(k))) > budget/2) {
				sink = 3 // a route flight takes one follower, or one a wire edge can publish no body to
			}
			canceled := op < 2 && next()%4 == 0 && !wire
			if sink != 3 || node != "" {
				prewarmFor(k, sink)
				h.request(k, sink, node, canceled, nil)
			}
		case 3: // cancel a live request
			if r := h.live; len(r) > 0 {
				i := next() % len(r)
				if fl := r[i].lead; herd && fl != nil && m.coal[r[i].key] == fl && fl.following() >= 2 {
					break // a failed leader would send its herd racing
				}
				h.log = append(h.log, fmt.Sprintf("cancel %v sink %d", r[i].key, r[i].sink))
				r[i].cancel()
				r[i].ctx.cancel()
			}
		case 4:
			g.set(nil)
			m.release()
		case 5, 6: // kill a member that is up, or recover one that is down
			if id, kill := member(op == 6), op == 5; id != "" {
				n := m.byID[id]
				if kill && !n.down && !m.crashable(n) {
					break
				}
				if kill {
					c.KillNode(id)
				} else if c.RecoverNode(id); c.Node(id).Down() {
					break // another listener took the edge's port: it stays down, as RecoverNode says
				}
				if n.down != kill {
					n.down, m.gauge["cluster.node."+id+".up"] = kill, int64(op-5)
					if kill {
						n.store.reset()
						m.crash(n)
					} else {
						n.ictx = &mctx{}
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
			if id := member(false); id != "" && m.crashable(m.byID[id]) {
				if err := c.RemoveNode(id); err != nil || c.RemoveNode(id) == nil {
					h.fatalf("RemoveNode(%s) failed (%v), or did a second time", id, err)
				}
				n := m.byID[id]
				n.gone, n.down = true, true
				m.gauge["cluster.node."+id+".up"], m.gauge["cluster.health."+id+".alive"] = 0, 0
				m.ids = slices.DeleteFunc(m.ids, func(s string) bool { return s == id })
				delete(m.byID, id)
				m.removed = append(m.removed, id)
				m.crash(n)
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
			if op == 10 && wire && m.held != nil && ms.flights[*m.held] != nil {
				break // over the wire, what a release wakes would race two flights of the held key
			}
			if body := modelBody(k); op == 10 {
				st.Reset()
				ms.reset()
			} else if body != nil && st.Put(k, slices.Clip(bytes.Clone(body))) != ms.insert(k, body) {
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
			clock.now.Add(int64(time.Duration(1+next()%3) * 250 * time.Millisecond))
		case 15: // a pinned read of the origin, the held key's or not; the pinned reads before it go once it has settled
			for _, r := range h.pinned {
				r.let = true
			}
			k := modelKeys[next()%len(modelKeys)]
			if m.held != nil && next()%2 == 0 {
				k = *m.held
			}
			h.request(avoid(k), 4, "", false, nil)
		case 16, 17, 18, 19: // wire: a request whose first edge cuts, resets or stalls its body at a byte, the stall brief or parked
			k, sink, at := modelKeys[next()%len(modelKeys)], next()%2, next()
			body := modelBody(k)
			if body == nil || len(m.ids) == 0 || m.held != nil && *m.held == k || m.coal[k] != nil {
				break
			}
			e := m.byID[Rank(k, m.ids)[0]]
			if e.down || e.inflight >= maxIn || e.breaker.State() != transport.BreakerClosed {
				break
			}
			f := &mfault{edge: e.id, at: at * len(body) / 256, hold: op == 18, park: op == 19, reset: op == 17}
			verb, hold := [...]faultVerb{cutAt, resetAt, stallAt, stallAt}[op-16], time.Duration(0)
			if f.hold {
				hold = time.Millisecond
			}
			if f.reset {
				// A reset discards what the router has not read, so it goes
				// before the head, on a fresh connection: a pooled one the
				// hop would take for stale and send the GET again on.
				f.at = beforeHead
				c.Node(e.id).hop.drop(false)
			}
			fnet.at(c.Node(e.id).Addr()).then(connFault{verb: verb, at: f.at, stall: hold})
			prewarmFor(k, sink)
			h.request(k, sink, "", false, f)
		case 20: // a burst of origin misses: the next burstLen burstKeys, or with an odd argument the last burstLen again, by Get and by ChunkTo in turn; with the argument's bit 1 set a writer-form origin's Write ends a byte short
			arg := next()
			if arg%2 == 1 && bursts >= burstLen {
				bursts -= burstLen
			}
			m.short = arg&2 != 0 && !bodyOrigin
			short.Store(m.short)
			for range burstLen {
				k, pinned := burstKeys[bursts%len(burstKeys)], bursts%2 == 1
				bursts++
				var got []byte
				var err error
				if pinned {
					var buf bytes.Buffer
					_, err = origin.ChunkTo(context.Background(), &buf, k.Video, k.Quality, k.Tile, k.Index, k.Layer)
					got = buf.Bytes()
				} else {
					got, err = origin.Get(context.Background(), k)
				}
				var want []byte
				var werr error
				m.originRead(&mctx{}, k, true, pinned, func(b []byte, err error) { want, werr = b, err })
				if (err == nil) != (werr == nil) || err == nil && !bytes.Equal(got, want) {
					h.fatalf("burst read %v (pinned %v): %d bytes, %v; the model has %d bytes, %v", k, pinned, len(got), err, len(want), werr)
				}
			}
			m.short = false
			short.Store(false)
			h.log = append(h.log, fmt.Sprintf("burst of %d to %d, short %v", bursts-burstLen, bursts, arg&2 != 0))
		}
		h.settle()
	}
	h.log = append(h.log, "release and close")
	if m.prior != nil {
		m.prior.on.Store(0)
	}
	g.set(nil)
	m.release()
	h.final = true
	h.settle()
	c.Close()
	if c.Close(); m.prior != nil {
		h.drainWarms()
	}
	if n, err := c.AddNode(""); err == nil {
		h.fatalf("AddNode after Close added %s", n.ID())
	}
	if wire {
		fnet.edges.Range(func(addr, s any) bool {
			if s.(*edgeScript).open.Load() != 0 {
				h.fatalf("%s listens after Close", addr)
			}
			return true
		})
	}
	for deadline := time.Now().Add(10 * time.Second); runtime.NumGoroutine() > base; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			h.fatalf("%d goroutines after Close, %d before the cluster", runtime.NumGoroutine(), base)
		}
	}
}

// TestClusterMatchesModel checks that New refuses a nil origin and a
// wire without a catalog, then plays seeded scenarios: requests through
// Chunk, StreamChunk (to a viewer that reads, one that stalls and one
// that hangs up), a node's own Chunk and a pinned read of the origin,
// the origin held or not, canceled before or while they wait; kills,
// recoveries, adds (three racing for one name among them), removals,
// sheds, Puts and Resets mid-flight, probes, clock steps, bursts of
// origin misses and, over the wire, bodies cut, reset and stalled at the
// edge's socket — in process and over the wire, with and without the
// pre-warmer and herds.
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

// playSeed replays the scenario FuzzClusterMatchesModel's corpus keeps
// under name: a test that is one of those scenarios names its seed, and
// the model checks what the test's own body checked.
func playSeed(t *testing.T, name string) {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("testdata", "fuzz", "FuzzClusterMatchesModel", name))
	if err != nil {
		t.Fatal(err)
	}
	lit, _ := strings.CutPrefix(strings.TrimSpace(string(b)), "go test fuzz v1\n[]byte(")
	ops, err := strconv.Unquote(strings.TrimSuffix(lit, ")"))
	if err != nil {
		t.Fatalf("seed %s: %v", name, err)
	}
	playModel(t, []byte(ops))
}

func FuzzClusterMatchesModel(f *testing.F) {
	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) > 512 {
			t.Skip()
		}
		playModel(t, ops)
	})
}
