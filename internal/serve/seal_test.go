package serve

import (
	"bytes"
	"context"
	"fmt"
	"hash/crc32"
	"runtime"
	"sync"
	"testing"
	"time"
)

// patternBody is a deterministic size-byte body that is a pure function
// of the key, so tests can recompute the expected bytes.
func patternBody(size int) ctxSynth {
	return func(_ context.Context, k ChunkKey) ([]byte, error) {
		b := byte(k.Index*31 + k.Tile*7 + k.Quality)
		out := make([]byte, size)
		for i := range out {
			out[i] = b + byte(i)
		}
		return out, nil
	}
}

// TestCtxStoreRetainsBodyAsReturned pins the ctx form's zero-copy
// contract: the slice the synth returned IS the cached body, so an edge
// pulling a resident body from an origin store shares the origin's
// sealed slice instead of paying a body-sized copy per miss.
func TestCtxStoreRetainsBodyAsReturned(t *testing.T) {
	origin := bytes.Repeat([]byte{0x5a}, 256)
	st := formStore("ctx", len(origin), func(context.Context, ChunkKey) ([]byte, error) { return origin, nil })
	for pass := 0; pass < 2; pass++ { // the miss, then the hit
		got, err := st.Get(context.Background(), key(1))
		if err != nil {
			t.Fatal(err)
		}
		if &got[0] != &origin[0] || len(got) != len(origin) {
			t.Fatalf("pass %d: ctx form copied the synth's body", pass)
		}
	}
}

// TestConcurrentReadersStableChecksums hammers a store small enough to
// evict constantly with parallel readers, checksumming every body
// against its expected value. Run under -race this is the aliasing
// smoking gun: any reader observing a body mid-build fails the checksum
// or trips the race detector. Half the readers read pinned
// (StreamChunk), yielding mid-write while others miss and evict, and
// once the store refuses first sights stream their misses; the rest
// Get, and check every body they got again at the end, so a body the
// store changed after handing it out fails too.
func TestConcurrentReadersStableChecksums(t *testing.T) {
	const bodySize = 1024
	synth := patternBody(bodySize)
	wantSum := make(map[ChunkKey]uint32)
	for i := 0; i < 64; i++ {
		body, err := synth(context.Background(), key(i))
		if err != nil {
			t.Fatal(err)
		}
		wantSum[key(i)] = crc32.ChecksumIEEE(body)
	}
	// One 10 s budget for every form, so a wedged store fails the whole
	// test within it.
	deadline := time.Now().Add(10 * time.Second)
	eachForm(t, func(t *testing.T, form string) {
		// Budget holds only ~8 of 64 keys: constant eviction + resynthesis.
		st := formStore(form, bodySize, synth, WithShards(4), WithBudget(8*bodySize))
		var wg sync.WaitGroup
		errCh := make(chan error, 16)
		for g := 0; g < 16; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				got := make(map[ChunkKey][][]byte)
				for i := 0; i < 400; i++ {
					k, sum := key((g*13+i*7)%64), uint32(0)
					if g%2 == 1 {
						w := &crcViewer{discardViewer: discardViewer{}}
						if _, err := st.StreamChunk(context.Background(), w, k.Video, k.Quality, k.Tile, k.Index, k.Layer); err != nil {
							errCh <- err
							return
						}
						sum = w.sum
					} else {
						body, err := st.Get(context.Background(), k)
						if err != nil {
							errCh <- err
							return
						}
						got[k], sum = append(got[k], body), crc32.ChecksumIEEE(body)
					}
					if sum != wantSum[k] {
						errCh <- fmt.Errorf("key %+v: checksum %08x, want %08x", k, sum, wantSum[k])
						return
					}
				}
				for k, bodies := range got {
					for _, body := range bodies {
						if crc32.ChecksumIEEE(body) != wantSum[k] {
							errCh <- fmt.Errorf("key %+v: a body Get returned has changed since", k)
							return
						}
					}
				}
			}(g)
		}
		done := make(chan struct{})
		go func() {
			wg.Wait()
			close(done)
		}()
		select {
		case <-done:
		case <-time.After(time.Until(deadline)):
			t.Fatal("the 16 readers had not finished 10s into the test")
		}
		close(errCh)
		for err := range errCh {
			t.Fatal(err)
		}
	})
}

// crcViewer checksums what a pinned read writes, yielding first so the
// store runs other readers' misses while the body is written.
type crcViewer struct {
	discardViewer
	sum uint32
}

func (v *crcViewer) Write(p []byte) (int, error) {
	runtime.Gosched()
	v.sum = crc32.Update(v.sum, crc32.IEEETable, p)
	return len(p), nil
}

// TestWarmHitZeroAlloc pins the warm path: a cache hit performs no
// allocations at all.
func TestWarmHitZeroAlloc(t *testing.T) {
	eachForm(t, func(t *testing.T, form string) {
		st := formStore(form, 512, patternBody(512), WithShards(2), WithBudget(1<<20))
		ctx := context.Background()
		k := key(1)
		if _, err := st.Get(ctx, k); err != nil {
			t.Fatal(err)
		}
		allocs := testing.AllocsPerRun(100, func() {
			if _, err := st.Get(ctx, k); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Fatalf("warm Get: %v allocs/op, want 0", allocs)
		}
	})
	if allocs := testing.AllocsPerRun(100, catalogGets(t, 256<<20, (*Store).Get)); allocs != 0 {
		t.Fatalf("warm Get of a catalog store: %v allocs/op, want 0", allocs)
	}
}
