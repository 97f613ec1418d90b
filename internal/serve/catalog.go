package serve

import (
	"context"
	"fmt"
	"io"

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

// ChunkTo streams the addressed chunk body into w: a Get (cache hit,
// or the synthesis it triggers) followed by one write of the sealed
// body — no second body-sized copy anywhere. Paired with ChunkLen it
// is the streaming origin seam the cluster's wire router uses for
// re-routed cold misses.
func (s *Store) ChunkTo(ctx context.Context, w io.Writer, videoID string, quality, tile, index int, layer bool) (int64, error) {
	body, err := s.Get(ctx, ChunkKey{Video: videoID, Quality: quality, Tile: tile, Index: index, Layer: layer})
	if err != nil {
		return 0, err
	}
	n, err := w.Write(body)
	return int64(n), err
}
