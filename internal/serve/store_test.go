package serve

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"sperke/internal/obs"
)

func key(i int) ChunkKey {
	return ChunkKey{Video: "v", Quality: 3, Tile: i % 12, Index: i}
}

// storeForms are the two miss forms the store knows. Behaviour that
// belongs to the store rather than to a form — singleflight, eviction,
// waiter cancellation, reset — is asserted once per form through
// eachForm, so the two adapters cannot drift apart.
var storeForms = []string{"writer", "ctx"}

func eachForm(t *testing.T, fn func(t *testing.T, form string)) {
	for _, form := range storeForms {
		t.Run(form, func(t *testing.T) { fn(t, form) })
	}
}

// formStore builds a store whose misses produce body(ctx, k) — always
// size bytes long — through the named form. The writer form declares
// size up front and streams the body; it has no flight context, so body
// sees a background one there.
func formStore(form string, size int, body ctxSynth, opts ...Option) *Store {
	if form == "ctx" {
		return New(append(opts, WithCtxSynth(body))...)
	}
	return New(append(opts, WithWriterSynth(WriterSynth{
		Size: func(ChunkKey) (int, error) { return size, nil },
		Write: func(w io.Writer, k ChunkKey) error {
			b, err := body(context.Background(), k)
			if err != nil {
				return err
			}
			_, err = w.Write(b)
			return err
		},
	}))...)
}

// TestConcurrentColdFetchSynthesizesOnce is the singleflight contract:
// however many goroutines race on one cold key, the body is synthesized
// exactly once and everyone gets it.
func TestConcurrentColdFetchSynthesizesOnce(t *testing.T) {
	eachForm(t, func(t *testing.T, form string) {
		var calls int32
		entered := make(chan struct{})
		release := make(chan struct{})
		want := bytes.Repeat([]byte{0xab}, 512)
		st := formStore(form, len(want), func(ctx context.Context, k ChunkKey) ([]byte, error) {
			if atomic.AddInt32(&calls, 1) == 1 {
				close(entered)
			}
			<-release
			return want, nil
		}, WithShards(4), WithBudget(1<<20))

		k := key(7)
		const waiters = 32
		got := make([][]byte, waiters+1)
		errs := make([]error, waiters+1)
		var wg sync.WaitGroup
		wg.Add(1)
		go func() { // leader
			defer wg.Done()
			got[0], errs[0] = st.Get(context.Background(), k)
		}()
		<-entered // leader is inside synth; everyone below must share it
		for i := 1; i <= waiters; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				got[i], errs[i] = st.Get(context.Background(), k)
			}(i)
		}
		close(release)
		wg.Wait()

		if n := atomic.LoadInt32(&calls); n != 1 {
			t.Fatalf("synth ran %d times, want 1", n)
		}
		for i := range got {
			if errs[i] != nil {
				t.Fatalf("Get %d: %v", i, errs[i])
			}
			if !bytes.Equal(got[i], want) {
				t.Fatalf("Get %d returned wrong body (%d bytes)", i, len(got[i]))
			}
		}
		if !st.Contains(k) {
			t.Fatal("key not resident after synthesis")
		}
	})
}

// TestWaiterContextCancel: a caller waiting on someone else's synthesis
// unblocks when its own context dies, without disturbing the flight.
func TestWaiterContextCancel(t *testing.T) {
	eachForm(t, func(t *testing.T, form string) {
		entered := make(chan struct{})
		release := make(chan struct{})
		st := formStore(form, 2, func(ctx context.Context, k ChunkKey) ([]byte, error) {
			close(entered)
			<-release
			return []byte("ok"), nil
		})

		k := key(1)
		leaderDone := make(chan error, 1)
		go func() {
			_, err := st.Get(context.Background(), k)
			leaderDone <- err
		}()
		<-entered

		ctx, cancel := context.WithCancel(context.Background())
		waiterDone := make(chan error, 1)
		go func() {
			_, err := st.Get(ctx, k)
			waiterDone <- err
		}()
		cancel()
		if err := <-waiterDone; err != context.Canceled {
			t.Fatalf("waiter error = %v, want context.Canceled", err)
		}
		close(release)
		if err := <-leaderDone; err != nil {
			t.Fatalf("leader error: %v", err)
		}
		if !st.Contains(k) {
			t.Fatal("flight should have completed and cached despite the canceled waiter")
		}
	})
}

// TestEvictionRespectsBudget pins the LRU byte accounting: the store
// never holds more than its budget, evicts oldest-first, and re-misses
// on an evicted key.
func TestEvictionRespectsBudget(t *testing.T) {
	eachForm(t, func(t *testing.T, form string) {
		var calls int32
		body := bytes.Repeat([]byte{1}, 300)
		reg := obs.NewRegistry()
		st := formStore(form, len(body), func(ctx context.Context, k ChunkKey) ([]byte, error) {
			atomic.AddInt32(&calls, 1)
			return body, nil
		}, WithShards(1), WithBudget(1000), WithObs(reg))

		ctx := context.Background()
		for i := 0; i < 4; i++ {
			if _, err := st.Get(ctx, key(i)); err != nil {
				t.Fatal(err)
			}
			if b := st.Bytes(); b > 1000 {
				t.Fatalf("resident bytes %d exceed budget after insert %d", b, i)
			}
		}
		// 4×300 = 1200 > 1000: the oldest entry must have gone.
		if st.Len() != 3 {
			t.Fatalf("Len = %d, want 3", st.Len())
		}
		if st.Contains(key(0)) {
			t.Fatal("oldest key survived past the budget")
		}
		for i := 1; i < 4; i++ {
			if !st.Contains(key(i)) {
				t.Fatalf("key %d should be resident", i)
			}
		}
		if ev := reg.Counter("serve.store.evictions").Value(); ev != 1 {
			t.Fatalf("evictions = %d, want 1", ev)
		}
		if g := reg.Gauge("serve.store.bytes").Value(); g != st.Bytes() {
			t.Fatalf("bytes gauge %d != resident %d", g, st.Bytes())
		}

		// Touch key(1) so key(2) is the LRU tail, then insert a new key
		// and check recency is what eviction follows.
		if _, err := st.Get(ctx, key(1)); err != nil {
			t.Fatal(err)
		}
		if _, err := st.Get(ctx, key(4)); err != nil {
			t.Fatal(err)
		}
		if st.Contains(key(2)) {
			t.Fatal("LRU tail survived; recency not honored")
		}
		if !st.Contains(key(1)) {
			t.Fatal("recently used key evicted")
		}

		// An evicted key is a fresh miss.
		before := atomic.LoadInt32(&calls)
		if _, err := st.Get(ctx, key(0)); err != nil {
			t.Fatal(err)
		}
		if atomic.LoadInt32(&calls) != before+1 {
			t.Fatal("evicted key did not re-synthesize")
		}
	})
}

// TestOversizedBodyUncacheable: a body larger than a shard's budget
// slice is served but never cached.
func TestOversizedBodyUncacheable(t *testing.T) {
	eachForm(t, func(t *testing.T, form string) {
		reg := obs.NewRegistry()
		st := formStore(form, 4096, func(ctx context.Context, k ChunkKey) ([]byte, error) {
			return make([]byte, 4096), nil
		}, WithShards(1), WithBudget(1024), WithObs(reg))
		b, err := st.Get(context.Background(), key(0))
		if err != nil || len(b) != 4096 {
			t.Fatalf("Get = %d bytes, %v", len(b), err)
		}
		if st.Contains(key(0)) || st.Bytes() != 0 {
			t.Fatal("oversized body was cached")
		}
		if u := reg.Counter("serve.store.uncacheable").Value(); u != 1 {
			t.Fatalf("uncacheable = %d, want 1", u)
		}
	})
}

// TestSynthErrorNotCached: a failed synthesis propagates its error and
// leaves nothing behind, so the next Get retries.
func TestSynthErrorNotCached(t *testing.T) {
	eachForm(t, func(t *testing.T, form string) {
		var calls int32
		st := formStore(form, 2, func(ctx context.Context, k ChunkKey) ([]byte, error) {
			if atomic.AddInt32(&calls, 1) == 1 {
				return nil, fmt.Errorf("flaky")
			}
			return []byte("ok"), nil
		})
		if _, err := st.Get(context.Background(), key(0)); err == nil {
			t.Fatal("expected error from first synthesis")
		}
		if st.Contains(key(0)) {
			t.Fatal("error result was cached")
		}
		if _, err := st.Get(context.Background(), key(0)); err != nil {
			t.Fatalf("retry failed: %v", err)
		}
	})
}

// TestShardsPowerOfTwo pins the rounding and the shard mask.
// TestShardHashPinned holds each key's shard hash, and its shard in a
// default 16-shard store, to literal values: a changed fold or key
// field must fail here rather than silently reshuffle every shard.
// cluster's TestPlacementPinned pins the same keys' rendezvous
// placement.
func TestShardHashPinned(t *testing.T) {
	st := formStore("ctx", 0, func(context.Context, ChunkKey) ([]byte, error) { return nil, nil })
	for _, tc := range []struct {
		key   ChunkKey
		hash  uint64
		shard int
	}{
		{ChunkKey{}, 0xd4657f55662f817f, 15},
		{ChunkKey{Video: "demo", Quality: 2, Tile: 5, Index: 17}, 0x28245906189d9060, 0},
		{ChunkKey{Video: "demo", Quality: 2, Tile: 5, Index: 17, Layer: true}, 0x28245a06189d9213, 3},
		{ChunkKey{Video: "a b/%2F?é", Quality: 1, Tile: 3, Index: 4, Layer: true}, 0x93fcb1592834b084, 4},
		{ChunkKey{Video: "neg", Quality: -1, Tile: -7, Index: math.MinInt32}, 0x3db95a318ab79d49, 9},
		{ChunkKey{Video: "big", Quality: math.MaxInt32, Tile: 1 << 20, Index: math.MaxInt32}, 0xe446ad38c664f0d3, 3},
	} {
		if got := tc.key.hash(); got != tc.hash {
			t.Errorf("%v: hash = %#x, want %#x", tc.key, got, tc.hash)
		}
		if st.shard(tc.key) != st.shards[tc.shard] {
			t.Errorf("%v: not in shard %d of %d", tc.key, tc.shard, st.Shards())
		}
	}
}

func TestShardsPowerOfTwo(t *testing.T) {
	for _, tc := range []struct{ in, want int }{
		{0, 16}, {1, 1}, {3, 4}, {16, 16}, {17, 32},
	} {
		st := formStore("ctx", 0, func(context.Context, ChunkKey) ([]byte, error) { return nil, nil }, WithShards(tc.in))
		if got := st.Shards(); got != tc.want {
			t.Errorf("Shards(%d) = %d, want %d", tc.in, got, tc.want)
		}
	}
}

// TestParallelMixedWorkload hammers the store from many goroutines over
// a keyspace larger than the budget — run under -race this is the
// lock-striping soundness check.
func TestParallelMixedWorkload(t *testing.T) {
	eachForm(t, func(t *testing.T, form string) {
		st := formStore(form, 200, func(ctx context.Context, k ChunkKey) ([]byte, error) {
			return bytes.Repeat([]byte{byte(k.Index)}, 200), nil
		}, WithShards(8), WithBudget(8*1024))
		var wg sync.WaitGroup
		for g := 0; g < 16; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				ctx := context.Background()
				for i := 0; i < 200; i++ {
					k := key((g*7 + i) % 100)
					b, err := st.Get(ctx, k)
					if err != nil {
						t.Errorf("Get: %v", err)
						return
					}
					if len(b) != 200 || b[0] != byte(k.Index) {
						t.Errorf("wrong body for %v", k)
						return
					}
				}
			}(g)
		}
		wg.Wait()
		if b := st.Bytes(); b > 8*1024 {
			t.Fatalf("resident bytes %d exceed budget", b)
		}
	})
}

// TestWaiterCancelWhileLeaderSynthesizes is the regression pin for the
// Get contract: a non-leading caller already parked on someone else's
// flight must return promptly with its own ctx.Err() when canceled —
// not block until the leader finishes. Unlike TestWaiterContextCancel,
// which races the cancel against the waiter's entry, this test proves
// the waiter is inside the flight select (via the singleflight_shared
// counter) before pulling its context.
func TestWaiterCancelWhileLeaderSynthesizes(t *testing.T) {
	for _, tc := range []struct {
		name string
		ctx  func() (context.Context, context.CancelFunc)
		want error
	}{
		{"cancel", func() (context.Context, context.CancelFunc) {
			return context.WithCancel(context.Background())
		}, context.Canceled},
		{"deadline", func() (context.Context, context.CancelFunc) {
			return context.WithTimeout(context.Background(), 10*time.Millisecond)
		}, context.DeadlineExceeded},
	} {
		t.Run(tc.name, func(t *testing.T) {
			eachForm(t, func(t *testing.T, form string) {
				reg := obs.NewRegistry()
				entered := make(chan struct{})
				release := make(chan struct{})
				st := formStore(form, 2, func(ctx context.Context, k ChunkKey) ([]byte, error) {
					close(entered)
					<-release
					return []byte("ok"), nil
				}, WithObs(reg))

				k := key(9)
				leaderDone := make(chan error, 1)
				go func() {
					_, err := st.Get(context.Background(), k)
					leaderDone <- err
				}()
				<-entered // leader is parked inside synth

				ctx, cancel := tc.ctx()
				defer cancel()
				waiterDone := make(chan error, 1)
				go func() {
					_, err := st.Get(ctx, k)
					waiterDone <- err
				}()
				// The shared counter ticks after the waiter joins the
				// flight and before it parks in the select; once it reads
				// 1 the waiter can only be at (or headed into) the select,
				// where ctx.Done() must win.
				shared := reg.Counter("serve.store.singleflight_shared")
				for shared.Value() == 0 {
					runtime.Gosched()
				}
				if tc.name == "cancel" {
					cancel()
				}
				select {
				case err := <-waiterDone:
					if err != tc.want {
						t.Fatalf("waiter error = %v, want %v", err, tc.want)
					}
				case <-time.After(5 * time.Second):
					t.Fatal("waiter still blocked on the leader's synthesis after its context died")
				}
				close(release)
				if err := <-leaderDone; err != nil {
					t.Fatalf("leader error: %v", err)
				}
				if !st.Contains(k) {
					t.Fatal("flight should have completed and cached despite the canceled waiter")
				}
			})
		})
	}
}

// TestResetDropsEverything pins the crash-restart semantics the cluster
// tier relies on: Reset empties every shard and zeroes the byte gauge,
// and the next Get re-misses.
func TestResetDropsEverything(t *testing.T) {
	eachForm(t, func(t *testing.T, form string) {
		var calls int32
		reg := obs.NewRegistry()
		st := formStore(form, 100, func(ctx context.Context, k ChunkKey) ([]byte, error) {
			atomic.AddInt32(&calls, 1)
			return bytes.Repeat([]byte{2}, 100), nil
		}, WithShards(4), WithBudget(1<<20), WithObs(reg))
		ctx := context.Background()
		for i := 0; i < 20; i++ {
			if _, err := st.Get(ctx, key(i)); err != nil {
				t.Fatal(err)
			}
		}
		if st.Len() != 20 || st.Bytes() == 0 {
			t.Fatalf("warmup: Len=%d Bytes=%d", st.Len(), st.Bytes())
		}
		st.Reset()
		if st.Len() != 0 {
			t.Fatalf("Len = %d after Reset, want 0", st.Len())
		}
		if st.Bytes() != 0 {
			t.Fatalf("Bytes = %d after Reset, want 0", st.Bytes())
		}
		if got := reg.Gauge("serve.store.bytes").Value(); got != 0 {
			t.Fatalf("bytes gauge = %d after Reset, want 0", got)
		}
		if _, err := st.Get(ctx, key(0)); err != nil {
			t.Fatal(err)
		}
		if atomic.LoadInt32(&calls) != 21 {
			t.Fatalf("synth calls = %d, want a re-miss after Reset", calls)
		}
	})
}

// TestResetOrphansOpenFlights: a miss in flight across a Reset belongs
// to the cache Reset dropped. It still hands its caller the body, but
// caches nothing — the store stays empty, its byte gauge at zero — and
// the next Get of the key misses afresh instead of joining it.
func TestResetOrphansOpenFlights(t *testing.T) {
	eachForm(t, func(t *testing.T, form string) {
		var calls atomic.Int32
		entered := make(chan struct{}, 1)
		release := make(chan struct{})
		want := bytes.Repeat([]byte{5}, 100)
		reg := obs.NewRegistry()
		st := formStore(form, len(want), func(ctx context.Context, k ChunkKey) ([]byte, error) {
			if calls.Add(1) == 1 {
				entered <- struct{}{}
				<-release
			}
			return want, nil
		}, WithShards(4), WithBudget(1<<20), WithObs(reg))

		ctx := context.Background()
		k := key(3)
		got := make(chan []byte, 1)
		go func() {
			b, err := st.Get(ctx, k)
			if err != nil {
				t.Error(err)
			}
			got <- b
		}()
		<-entered
		st.Reset()
		close(release)
		if b := <-got; !bytes.Equal(b, want) {
			t.Fatalf("the orphaned flight handed its caller %d bytes, want the %d-byte body", len(b), len(want))
		}
		if st.Len() != 0 || st.Bytes() != 0 {
			t.Fatalf("Len = %d, Bytes = %d after an orphaned flight completed; want 0 and 0", st.Len(), st.Bytes())
		}
		if g := reg.Gauge("serve.store.bytes").Value(); g != 0 {
			t.Fatalf("bytes gauge = %d, want 0", g)
		}
		if _, err := st.Get(ctx, k); err != nil {
			t.Fatal(err)
		}
		if n := calls.Load(); n != 2 {
			t.Fatalf("synth ran %d times, want 2: the Get after the orphaned flight did not miss", n)
		}
		if m := reg.Counter("serve.store.misses").Value(); m != 2 {
			t.Fatalf("serve.store.misses = %d, want 2", m)
		}
	})
}

// TestPutDuringFlightKeepsOneEntry is the duplicate-insert regression:
// a replica warm (Put) landing while a Get flight for the same key is
// open used to leave two LRU elements for one key — resident bytes and
// the serve.store.bytes gauge double-counted, and evicting the orphan
// deleted the live map entry, turning a resident body into a spurious
// miss. An existing entry wins on both insert paths.
func TestPutDuringFlightKeepsOneEntry(t *testing.T) {
	eachForm(t, func(t *testing.T, form string) {
		body := bytes.Repeat([]byte{7}, 300)
		entered := make(chan struct{}, 1)
		release := make(chan struct{})
		var blocked atomic.Bool
		blocked.Store(true)
		reg := obs.NewRegistry()
		st := formStore(form, len(body), func(ctx context.Context, k ChunkKey) ([]byte, error) {
			if blocked.Load() {
				entered <- struct{}{}
				<-release
			}
			return body, nil
		}, WithShards(1), WithBudget(700), WithObs(reg))

		ctx := context.Background()
		k := key(0)
		done := make(chan error, 1)
		go func() {
			_, err := st.Get(ctx, k)
			done <- err
		}()
		<-entered
		if !st.Put(k, body) {
			t.Fatal("Put during the open flight was rejected")
		}
		blocked.Store(false)
		close(release)
		if err := <-done; err != nil {
			t.Fatal(err)
		}
		if st.Len() != 1 {
			t.Fatalf("Len = %d, want 1", st.Len())
		}
		if got := st.Bytes(); got != int64(len(body)) {
			t.Fatalf("Bytes = %d, want %d — the key is counted twice", got, len(body))
		}
		if g := reg.Gauge("serve.store.bytes").Value(); g != int64(len(body)) {
			t.Fatalf("bytes gauge = %d, want %d", g, len(body))
		}

		// 700-byte budget, 300-byte bodies: two fit, the third evicts the
		// LRU tail. Touch k so its neighbour is the tail; with an orphan
		// element for k left on the list, that eviction pressure reaches
		// the orphan and takes the live map entry with it.
		if _, err := st.Get(ctx, key(1)); err != nil {
			t.Fatal(err)
		}
		if _, err := st.Get(ctx, k); err != nil {
			t.Fatal(err)
		}
		if _, err := st.Get(ctx, key(2)); err != nil {
			t.Fatal(err)
		}
		if st.Contains(key(1)) {
			t.Fatal("the neighbour should have been evicted")
		}
		if !st.Contains(k) {
			t.Fatal("eviction pressure removed the live entry instead of its neighbour")
		}
		if b := st.Bytes(); b > 700 {
			t.Fatalf("resident bytes %d exceed the budget", b)
		}
	})
}

// TestStoreCountersAddUp pins the store's counter law over one schedule:
// every Get whose context is live at entry counts exactly once, as a
// hit, a miss or a singleflight-shared join, so
//
//	serve.store.hits + misses + singleflight_shared = live Gets,
//
// and serve.store.uncacheable ≤ misses, since only a miss's insert can
// refuse a body (the schedule has no Put, the other insert). A Get
// entered with a dead context counts nothing; a join canceled while it
// waits has already counted; a miss orphaned by Reset counted when it
// opened. Each step also pins its own deltas, and the law is checked
// after every step.
func TestStoreCountersAddUp(t *testing.T) {
	big := key(99)
	bodyFor := func(k ChunkKey) []byte {
		n := 64
		if k == big {
			n = 4096 // past the 1 KiB shard budget
		}
		return bytes.Repeat([]byte{byte(k.Index)}, n)
	}
	type counts struct{ hits, misses, shared, uncacheable int64 }
	type env struct {
		st      *Store
		reg     *obs.Registry
		arm     func(k ChunkKey) (release func())
		entered chan ChunkKey
	}
	// get runs Get in the background and reports its error on the result.
	get := func(e *env, ctx context.Context, k ChunkKey) <-chan error {
		done := make(chan error, 1)
		go func() {
			body, err := e.st.Get(ctx, k)
			if err == nil && !bytes.Equal(body, bodyFor(k)) {
				err = fmt.Errorf("Get(%v) returned %d bytes, want %d", k, len(body), len(bodyFor(k)))
			}
			done <- err
		}()
		return done
	}
	// waitInterest polls until n callers share k's open flight.
	waitInterest := func(t *testing.T, e *env, k ChunkKey, n int) {
		t.Helper()
		sh := e.st.shard(k)
		for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
			sh.mu.Lock()
			got := 0
			if fl := sh.inflight[k]; fl != nil {
				got = fl.interest
			}
			sh.mu.Unlock()
			if got == n {
				return
			}
			if time.Now().After(deadline) {
				t.Fatalf("%d callers share the flight of %v, want %d", got, k, n)
			}
		}
	}
	must := func(t *testing.T, done <-chan error) {
		t.Helper()
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}

	steps := []struct {
		name string
		// run drives the step and returns its Gets entered with a live
		// context.
		run  func(t *testing.T, e *env) int
		want counts
	}{
		{"miss", func(t *testing.T, e *env) int {
			must(t, get(e, context.Background(), key(1)))
			return 1
		}, counts{misses: 1}},
		{"hit", func(t *testing.T, e *env) int {
			must(t, get(e, context.Background(), key(1)))
			return 1
		}, counts{hits: 1}},
		{"dead context at entry", func(t *testing.T, e *env) int {
			ctx, cancel := context.WithCancel(context.Background())
			cancel()
			if err := <-get(e, ctx, key(2)); !errors.Is(err, context.Canceled) {
				t.Fatalf("Get on a dead context returned %v", err)
			}
			return 0
		}, counts{}},
		{"two joins of an open flight", func(t *testing.T, e *env) int {
			release := e.arm(key(3))
			leader := get(e, context.Background(), key(3))
			<-e.entered
			a, b := get(e, context.Background(), key(3)), get(e, context.Background(), key(3))
			waitInterest(t, e, key(3), 3)
			release()
			must(t, leader)
			must(t, a)
			must(t, b)
			return 3
		}, counts{misses: 1, shared: 2}},
		{"a join canceled while it waits", func(t *testing.T, e *env) int {
			release := e.arm(key(4))
			leader := get(e, context.Background(), key(4))
			<-e.entered
			ctx, cancel := context.WithCancel(context.Background())
			joiner := get(e, ctx, key(4))
			waitInterest(t, e, key(4), 2)
			cancel()
			if err := <-joiner; !errors.Is(err, context.Canceled) {
				t.Fatalf("canceled join returned %v", err)
			}
			release()
			must(t, leader)
			return 2
		}, counts{misses: 1, shared: 1}},
		{"Reset mid-flight", func(t *testing.T, e *env) int {
			// The Get after the Reset opens a flight of its own beside the
			// orphan instead of joining it.
			release := e.arm(key(5))
			orphan := get(e, context.Background(), key(5))
			<-e.entered
			e.st.Reset()
			fresh := get(e, context.Background(), key(5))
			<-e.entered
			release()
			must(t, orphan)
			must(t, fresh)
			return 2
		}, counts{misses: 2}},
		{"oversized body, twice", func(t *testing.T, e *env) int {
			must(t, get(e, context.Background(), big))
			must(t, get(e, context.Background(), big))
			return 2
		}, counts{misses: 2, uncacheable: 2}},
	}

	eachForm(t, func(t *testing.T, form string) {
		e := &env{reg: obs.NewRegistry(), entered: make(chan ChunkKey, 4)}
		var mu sync.Mutex
		gates := map[ChunkKey]chan struct{}{}
		e.arm = func(k ChunkKey) func() {
			g := make(chan struct{})
			mu.Lock()
			gates[k] = g
			mu.Unlock()
			return func() { close(g) }
		}
		// synth blocks on k's gate while one is armed, reporting each
		// arrival on entered.
		synth := func(k ChunkKey) []byte {
			mu.Lock()
			g := gates[k]
			mu.Unlock()
			if g != nil {
				e.entered <- k
				<-g
			}
			return bodyFor(k)
		}
		opts := []Option{WithShards(1), WithBudget(1 << 10), WithObs(e.reg)}
		if form == "ctx" {
			e.st = New(append(opts, WithCtxSynth(func(_ context.Context, k ChunkKey) ([]byte, error) { return synth(k), nil }))...)
		} else {
			e.st = New(append(opts, WithWriterSynth(WriterSynth{
				Size: func(k ChunkKey) (int, error) { return len(bodyFor(k)), nil },
				Write: func(w io.Writer, k ChunkKey) error {
					_, err := w.Write(synth(k))
					return err
				},
			}))...)
		}
		read := func() counts {
			c := func(name string) int64 { return e.reg.Counter("serve.store." + name).Value() }
			return counts{c("hits"), c("misses"), c("singleflight_shared"), c("uncacheable")}
		}
		live := int64(0)
		for _, step := range steps {
			before := read()
			live += int64(step.run(t, e))
			after := read()
			d := counts{after.hits - before.hits, after.misses - before.misses, after.shared - before.shared, after.uncacheable - before.uncacheable}
			if d != step.want {
				t.Fatalf("%s: deltas %+v, want %+v", step.name, d, step.want)
			}
			if sum := after.hits + after.misses + after.shared; sum != live {
				t.Fatalf("after %s: hits + misses + singleflight_shared = %d, but %d Gets entered live", step.name, sum, live)
			}
			if after.uncacheable > after.misses {
				t.Fatalf("after %s: uncacheable %d > misses %d", step.name, after.uncacheable, after.misses)
			}
		}
	})
}
