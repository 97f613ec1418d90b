package serve

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"testing"
)

// optBody is the deterministic test body the tests in this file
// synthesize, so expected bytes can be recomputed from the key.
func optBody(k ChunkKey) []byte {
	return []byte(fmt.Sprintf("body:%s", k))
}

// optWriter is optBody as a writer-form synthesizer.
var optWriter = WriterSynth{
	Size: func(k ChunkKey) (int, error) { return len(optBody(k)), nil },
	Write: func(w io.Writer, k ChunkKey) error {
		_, err := w.Write(optBody(k))
		return err
	},
}

// optSynth is optBody as a body-form synthesizer.
func optSynth(k ChunkKey) ([]byte, error) { return optBody(k), nil }

// TestNewRequiresExactlyOneSynth pins New's construction contract:
// zero synthesis options panic, and so do both at once or half a
// writer.
func TestNewRequiresExactlyOneSynth(t *testing.T) {
	mustPanic := func(name string, build func()) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s: New did not panic", name)
			}
		}()
		build()
	}
	mustPanic("no synth", func() { New(WithShards(4)) })
	mustPanic("two synths", func() { New(WithWriterSynth(optWriter), WithBodySynth(optSynth)) })
	mustPanic("half a writer synth", func() {
		New(WithWriterSynth(WriterSynth{Size: optWriter.Size}))
	})
}

// TestChunkLenAndChunkTo pins the streaming origin seam: ChunkLen
// reports the sized synth's exact length without synthesizing, ChunkTo
// streams the same bytes Chunk returns, and a store without a size
// model refuses ChunkLen.
func TestChunkLenAndChunkTo(t *testing.T) {
	st := New(WithWriterSynth(optWriter))
	k := key(3)
	n, err := st.ChunkLen(k.Video, k.Quality, k.Tile, k.Index, k.Layer)
	if err != nil {
		t.Fatal(err)
	}
	if n != len(optBody(k)) {
		t.Fatalf("ChunkLen = %d, want %d", n, len(optBody(k)))
	}
	if st.Len() != 0 {
		t.Fatal("ChunkLen synthesized a body")
	}
	var buf bytes.Buffer
	wrote, err := st.ChunkTo(context.Background(), &buf, k.Video, k.Quality, k.Tile, k.Index, k.Layer)
	if err != nil {
		t.Fatal(err)
	}
	if wrote != int64(len(optBody(k))) || !bytes.Equal(buf.Bytes(), optBody(k)) {
		t.Fatalf("ChunkTo streamed %d bytes %q, want %q", wrote, buf.Bytes(), optBody(k))
	}

	plain := New(WithBodySynth(optSynth))
	if _, err := plain.ChunkLen(k.Video, k.Quality, k.Tile, k.Index, k.Layer); err == nil {
		t.Fatal("store without a size model reported a ChunkLen")
	}
}
