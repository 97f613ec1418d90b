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
// addressed body into w after its Content-Type and Content-Length; a
// miss the second-sight rule refuses streams from the synthesizer, as
// the store-less path does. A failed write to w wraps dash.ErrViewerGone.
func (s *Store) StreamChunk(ctx context.Context, w http.ResponseWriter, videoID string, quality, tile, index int, layer bool) (int64, error) {
	return s.writeTo(ctx, w, w.Header(), ChunkKey{Video: videoID, Quality: quality, Tile: tile, Index: index, Layer: layer})
}

// ChunkTo writes the addressed chunk body into w, as StreamChunk does,
// for a writer that is not a ResponseWriter, with no body-sized copy
// anywhere. No serving path calls it — the wire router's origin
// fallback calls Chunk — and the bench harness's traced origin
// forwards it.
func (s *Store) ChunkTo(ctx context.Context, w io.Writer, videoID string, quality, tile, index int, layer bool) (int64, error) {
	return s.writeTo(ctx, w, nil, ChunkKey{Video: videoID, Quality: quality, Tile: tile, Index: index, Layer: layer})
}

// writeTo is a pinned read: key's body, hit or miss, goes into w, after
// hdr's Content-Type and Content-Length when hdr is set.
func (s *Store) writeTo(ctx context.Context, w io.Writer, hdr http.Header, key ChunkKey) (int64, error) {
	body, stream, err := s.get(ctx, key, true, true)
	if err != nil {
		return 0, err
	}
	if hdr != nil {
		dash.SetOctetStream(hdr)
		hdr.Set("Content-Length", strconv.Itoa(max(stream, len(body)))) // stream is -1 unless body is nil
	}
	if stream >= 0 {
		return s.stream(w, key, stream)
	}
	n, err := w.Write(body)
	if err != nil {
		return int64(n), fmt.Errorf("serve: writing to the viewer: %w: %w", dash.ErrViewerGone, err)
	}
	return int64(n), nil
}

// stream writes a refused miss of n bytes from the synthesizer into w.
// A failed write to w wraps dash.ErrViewerGone; a synthesis error is
// returned as it is, so one before the first byte can be answered with
// a status; a stream of other than n bytes fails with the count written.
func (s *Store) stream(w io.Writer, key ChunkKey, n int) (int64, error) {
	cw := &countWriter{w: w}
	err := s.ws.Write(cw, key)
	switch {
	case cw.err != nil:
		return cw.n, fmt.Errorf("serve: writing to the viewer: %w: %w", dash.ErrViewerGone, cw.err)
	case err != nil:
		return cw.n, err
	case cw.n != int64(n):
		return cw.n, fmt.Errorf("serve: sized synth for %s wrote %d bytes, want %d", key, cw.n, n)
	}
	return cw.n, nil
}

// countWriter counts what it writes to w, and stops at w's first error.
type countWriter struct {
	w   io.Writer
	n   int64
	err error
}

func (c *countWriter) Write(p []byte) (n int, err error) {
	if c.err == nil {
		n, c.err = c.w.Write(p)
		c.n += int64(n)
	}
	return n, c.err
}
