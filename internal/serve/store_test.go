package serve

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"runtime"
	"sync/atomic"
	"testing"

	"sperke/internal/obs"
)

func key(i int) ChunkKey {
	return ChunkKey{Video: "v", Quality: 3, Tile: i % 12, Index: i}
}

// storeForms are the two miss forms the store knows: "writer"
// (WithWriterSynth) and "ctx" (WithBodySynth), the label its subtests
// have always run under.
var storeForms = []string{"writer", "ctx"}

func eachForm(t *testing.T, fn func(t *testing.T, form string)) {
	for _, form := range storeForms {
		t.Run(form, func(t *testing.T) { fn(t, form) })
	}
}

// formStore builds a store whose misses produce body(k) — always size
// bytes long — through the named form. The writer form declares size up
// front and streams the body.
func formStore(form string, size int, body bodySynth, opts ...Option) *Store {
	if form == "ctx" {
		return New(append(opts, WithBodySynth(body))...)
	}
	return New(append(opts, WithWriterSynth(WriterSynth{
		Size: func(ChunkKey) (int, error) { return size, nil },
		Write: func(w io.Writer, k ChunkKey) error {
			b, err := body(k)
			if err != nil {
				return err
			}
			_, err = w.Write(b)
			return err
		},
	}))...)
}

// TestShardHashPinned holds each key's shard hash, and its shard in a
// default 16-shard store, to literal values: a changed fold or key
// field must fail here rather than silently reshuffle every shard.
// cluster's TestPlacementPinned pins the same keys' rendezvous
// placement.
func TestShardHashPinned(t *testing.T) {
	st := formStore("ctx", 0, func(ChunkKey) ([]byte, error) { return nil, nil })
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

// TestShardsPowerOfTwo pins the rounding and the shard mask.
func TestShardsPowerOfTwo(t *testing.T) {
	for _, tc := range []struct{ in, want int }{
		{0, 16}, {1, 1}, {3, 4}, {16, 16}, {17, 32},
	} {
		st := formStore("ctx", 0, func(ChunkKey) ([]byte, error) { return nil, nil }, WithShards(tc.in))
		if got := st.Shards(); got != tc.want {
			t.Errorf("Shards(%d) = %d, want %d", tc.in, got, tc.want)
		}
	}
}

// TestPullAdmitsNothing: a Pull miss is served and not cached, so the
// store stays empty, and a Pull of a resident body is a hit that leaves
// it resident.
func TestPullAdmitsNothing(t *testing.T) {
	eachForm(t, func(t *testing.T, form string) {
		const size = 512
		reg := obs.NewRegistry()
		st := formStore(form, size, patternBody(size), WithObs(reg))
		ctx := context.Background()
		want, _ := patternBody(size)(key(1))
		for range 2 {
			if got, err := st.Pull(ctx, key(1)); err != nil || !bytes.Equal(got, want) {
				t.Fatalf("Pull miss: %d bytes, %v", len(got), err)
			}
			if st.Len() != 0 || st.Bytes() != 0 {
				t.Fatalf("after a Pull miss the store holds %d bodies in %d bytes, want none", st.Len(), st.Bytes())
			}
		}
		if _, err := st.Get(ctx, key(1)); err != nil {
			t.Fatal(err)
		}
		if got, err := st.Pull(ctx, key(1)); err != nil || !bytes.Equal(got, want) {
			t.Fatalf("Pull hit: %d bytes, %v", len(got), err)
		}
		if st.Len() != 1 || st.Bytes() != size {
			t.Fatalf("after a Pull hit the store holds %d bodies in %d bytes, want 1 in %d", st.Len(), st.Bytes(), size)
		}
		c := reg.Snapshot().Counters
		if c["serve.store.misses"] != 3 || c["serve.store.hits"] != 1 {
			t.Fatalf("%d misses, %d hits; want 3 and 1", c["serve.store.misses"], c["serve.store.hits"])
		}
	})
}

// TestPullAndGetShareAFlight: a Pull and a Get of one cold key share one
// synthesis, whichever leads, and the follower counts under
// singleflight_shared. The leader decides admission: the body is cached
// when the Get led and not when the Pull did.
func TestPullAndGetShareAFlight(t *testing.T) {
	const size = 256
	for _, tc := range []struct {
		lead, follow string
		resident     int
	}{{"Pull", "Get", 0}, {"Get", "Pull", 1}} {
		t.Run(tc.lead+"Leads", func(t *testing.T) {
			eachForm(t, func(t *testing.T, form string) {
				var synths atomic.Int32
				entered, release := make(chan struct{}), make(chan struct{})
				reg := obs.NewRegistry()
				st := formStore(form, size, func(k ChunkKey) ([]byte, error) {
					if synths.Add(1) == 1 {
						close(entered)
					}
					<-release
					return patternBody(size)(k)
				}, WithObs(reg))
				read := map[string]func(context.Context, ChunkKey) ([]byte, error){"Pull": st.Pull, "Get": st.Get}
				shared := reg.Counter("serve.store.singleflight_shared")
				ctx := context.Background()
				want, _ := patternBody(size)(key(2))
				errs := make(chan error, 2)
				do := func(name string) {
					got, err := read[name](ctx, key(2))
					if err == nil && !bytes.Equal(got, want) {
						err = fmt.Errorf("%s got %d bytes, not the body", name, len(got))
					}
					errs <- err
				}
				go do(tc.lead)
				<-entered
				go do(tc.follow)
				for shared.Value() == 0 {
					runtime.Gosched()
				}
				close(release)
				for range 2 {
					if err := <-errs; err != nil {
						t.Fatal(err)
					}
				}
				if n := synths.Load(); n != 1 || shared.Value() != 1 {
					t.Fatalf("%s then %s: %d syntheses, %d shared; want 1 and 1", tc.lead, tc.follow, n, shared.Value())
				}
				if st.Len() != tc.resident {
					t.Fatalf("%s then %s: %d resident, want %d", tc.lead, tc.follow, st.Len(), tc.resident)
				}
			})
		})
	}
}

// TestFlightRunsToCompletion: no flight is canceled. A caller that
// joined a flight returns its context's error as soon as that context
// ends; the caller that opened it, whose context ended first, still gets
// the body once the synthesis returns, and the body is cached, so the
// next Get is a hit and nothing synthesizes again.
func TestFlightRunsToCompletion(t *testing.T) {
	eachForm(t, func(t *testing.T, form string) {
		const size = 256
		var synths atomic.Int32
		entered, release := make(chan struct{}), make(chan struct{})
		reg := obs.NewRegistry()
		st := formStore(form, size, func(k ChunkKey) ([]byte, error) {
			if synths.Add(1) == 1 {
				close(entered)
			}
			<-release
			return patternBody(size)(k)
		}, WithObs(reg))
		get := func(ctx context.Context, out chan<- error) {
			_, err := st.Get(ctx, key(3))
			out <- err
		}
		leadCtx, leave := context.WithCancel(context.Background())
		waitCtx, hangUp := context.WithCancel(context.Background())
		led, joined := make(chan error, 1), make(chan error, 1)
		go get(leadCtx, led)
		<-entered
		leave()
		go get(waitCtx, joined)
		for reg.Counter("serve.store.singleflight_shared").Value() == 0 {
			runtime.Gosched()
		}
		hangUp()
		if err := <-joined; !errors.Is(err, context.Canceled) {
			t.Fatalf("a waiter whose context ended got %v, want context.Canceled", err)
		}
		close(release)
		if err := <-led; err != nil {
			t.Fatalf("the flight's opener got %v after its context ended, want the body", err)
		}
		if got, err := st.Get(context.Background(), key(3)); err != nil || len(got) != size {
			t.Fatalf("Get after the flight: %d bytes, %v", len(got), err)
		}
		c := reg.Snapshot().Counters
		if n := synths.Load(); n != 1 || c["serve.store.misses"] != 1 || c["serve.store.hits"] != 1 {
			t.Fatalf("%d syntheses, %d misses, %d hits; want 1, 1 and 1", n, c["serve.store.misses"], c["serve.store.hits"])
		}
	})
}
