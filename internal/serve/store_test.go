package serve

import (
	"context"
	"io"
	"math"
	"testing"
)

func key(i int) ChunkKey {
	return ChunkKey{Video: "v", Quality: 3, Tile: i % 12, Index: i}
}

// storeForms are the two miss forms the store knows.
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

// TestShardsPowerOfTwo pins the rounding and the shard mask.
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
