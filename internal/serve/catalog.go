package serve

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"strconv"

	"sperke/internal/dash"
)

// NewCatalogStore builds a Store whose miss path streams chunk bodies
// from a dash catalog with dash.WriteChunkBody — the single writer-
// first synthesis routine the store-less serving path uses, so cached
// and streamed bodies are byte-identical by construction. The sealed
// cache copy is allocated at its exact length (dash.ChunkBodyLen) and
// filled by the stream; a miss performs no other body-sized work. Wire
// it under a server with dash.WithStore:
//
//	store := serve.NewCatalogStore(catalog, serve.StoreConfig{BudgetBytes: 256 << 20})
//	srv := dash.NewServer(catalog, dash.WithStore(store))
func NewCatalogStore(cat *dash.Catalog, cfg StoreConfig) *Store {
	return New(WithWriterSynth(WriterSynth{
		Size: func(key ChunkKey) (int, error) {
			v, ok := cat.Get(key.Video)
			if !ok {
				return 0, fmt.Errorf("serve: video %q not in catalog", key.Video)
			}
			return dash.ChunkBodyLen(v, key.Quality, key.Tile, key.Index, key.Layer)
		},
		Write: func(w io.Writer, key ChunkKey) error {
			v, ok := cat.Get(key.Video)
			if !ok {
				return fmt.Errorf("serve: video %q not in catalog", key.Video)
			}
			return dash.WriteChunkBody(w, v, key.Quality, key.Tile, key.Index, key.Layer)
		},
	}), WithShards(cfg.Shards), WithBudget(cfg.BudgetBytes), WithObs(cfg.Obs))
}

// Chunk implements dash.ChunkSource over the sharded cache.
func (s *Store) Chunk(ctx context.Context, videoID string, quality, tile, index int, layer bool) ([]byte, error) {
	return s.Get(ctx, ChunkKey{Video: videoID, Quality: quality, Tile: tile, Index: index, Layer: layer})
}

// StreamChunk implements dash.Server's streaming seam: it writes the
// addressed body straight into w under a pin, with Content-Type and
// Content-Length set first. The store built the body itself, and hands
// it to no caller, so once the body is evicted or Reset and its last
// write is done the next pinned miss of its size class builds in the
// same buffer instead of allocating. A failed write to w is returned
// wrapping dash.ErrViewerGone.
func (s *Store) StreamChunk(ctx context.Context, w http.ResponseWriter, videoID string, quality, tile, index int, layer bool) (int64, error) {
	return s.writeTo(ctx, w, w.Header(), ChunkKey{Video: videoID, Quality: quality, Tile: tile, Index: index, Layer: layer})
}

// ChunkTo writes the addressed chunk body into w under a pin, as
// StreamChunk does, for a writer that is not a ResponseWriter: one
// write of the sealed body, no second body-sized copy anywhere. No
// serving path calls it — the wire router's origin fallback calls
// Chunk — and the bench harness's traced origin forwards it.
func (s *Store) ChunkTo(ctx context.Context, w io.Writer, videoID string, quality, tile, index int, layer bool) (int64, error) {
	return s.writeTo(ctx, w, nil, ChunkKey{Video: videoID, Quality: quality, Tile: tile, Index: index, Layer: layer})
}

// writeTo is a pinned read: key's body, hit or miss, goes into w in one
// write, after hdr's Content-Type and Content-Length when hdr is set.
func (s *Store) writeTo(ctx context.Context, w io.Writer, hdr http.Header, key ChunkKey) (int64, error) {
	body, e, err := s.get(ctx, key, true, true)
	if err != nil {
		return 0, err
	}
	defer s.unpin(key, e)
	if hdr != nil {
		dash.SetOctetStream(hdr)
		hdr.Set("Content-Length", strconv.Itoa(len(body)))
	}
	n, err := w.Write(body)
	if err != nil {
		return int64(n), fmt.Errorf("serve: writing to the viewer: %w: %w", dash.ErrViewerGone, err)
	}
	return int64(n), nil
}
