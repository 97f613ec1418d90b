package media

import (
	"bytes"
	"io"
	"testing"
	"time"

	"sperke/internal/obs"
	"sperke/internal/tiling"
)

// writerEquivCases spans the alignment edges of the block generator:
// empty, sub-word, word-boundary, word+1, one block, and a multi-block
// body larger than SyntheticBlockLen.
var writerEquivCases = []int{0, 1, 7, 8, 9, SyntheticBlockLen - 1, SyntheticBlockLen, SyntheticBlockLen + 1, 109_000}

func equivHeader() SegmentHeader {
	return SegmentHeader{
		VideoID:  "writer-equiv",
		Quality:  4,
		Flags:    FlagLive,
		Tile:     9,
		Start:    6 * time.Second,
		Duration: 2 * time.Second,
	}
}

// referenceSegment is the oracle the writer-first form is held to:
// WriteSegment over the whole materialized SyntheticPayload.
func referenceSegment(h SegmentHeader, seed uint64, n int) ([]byte, error) {
	var buf bytes.Buffer
	err := WriteSegment(&buf, h, SyntheticPayload(seed, n))
	return buf.Bytes(), err
}

// TestWriteSyntheticSegmentEquivalence pins the writer-first form to
// its reference: streaming a synthetic segment block by block emits
// exactly WriteSegment over SyntheticPayload at every size class, and
// the result round-trips through ReadSegment.
func TestWriteSyntheticSegmentEquivalence(t *testing.T) {
	h := equivHeader()
	for _, n := range writerEquivCases {
		var streamed bytes.Buffer
		if err := WriteSyntheticSegment(&streamed, h, 77, n); err != nil {
			t.Fatalf("n=%d: WriteSyntheticSegment: %v", n, err)
		}
		want, err := referenceSegment(h, 77, n)
		if err != nil {
			t.Fatalf("n=%d: WriteSegment: %v", n, err)
		}
		if !bytes.Equal(streamed.Bytes(), want) {
			t.Fatalf("n=%d: streamed differs from WriteSegment(SyntheticPayload)", n)
		}
		got, payload, err := ReadSegment(bytes.NewReader(streamed.Bytes()))
		if err != nil {
			t.Fatalf("n=%d: streamed segment does not round-trip: %v", n, err)
		}
		if got != h || !bytes.Equal(payload, SyntheticPayload(77, n)) {
			t.Fatalf("n=%d: round-trip header/payload mismatch", n)
		}
	}
}

// FuzzSyntheticSegmentForms drives the writer and its reference with
// arbitrary headers, seeds and sizes: they must agree byte-for-byte or
// both reject the input.
func FuzzSyntheticSegmentForms(f *testing.F) {
	f.Add(uint64(42), 1000, uint8(3), uint16(17))
	f.Add(uint64(0), 0, uint8(0), uint16(0))
	f.Add(uint64(1<<40), SyntheticBlockLen+5, uint8(255), uint16(65535))
	f.Fuzz(func(t *testing.T, seed uint64, n int, q uint8, tile uint16) {
		if n < 0 || n > 1<<17 {
			return
		}
		h := SegmentHeader{
			VideoID:  "fuzz",
			Quality:  int(q),
			Tile:     tiling.TileID(tile),
			Start:    time.Duration(seed%1000) * time.Millisecond,
			Duration: 2 * time.Second,
		}
		var streamed bytes.Buffer
		werr := WriteSyntheticSegment(&streamed, h, seed, n)
		want, rerr := referenceSegment(h, seed, n)
		if (werr == nil) != (rerr == nil) {
			t.Fatalf("forms disagree on validity: writer=%v reference=%v", werr, rerr)
		}
		if werr == nil && !bytes.Equal(streamed.Bytes(), want) {
			t.Fatal("streamed differs from WriteSegment(SyntheticPayload)")
		}
	})
}

// TestWriteSyntheticSegmentZeroAlloc pins the streaming path's scratch
// budget: once the block pool is warm, streaming a multi-block body
// allocates nothing at all.
func TestWriteSyntheticSegmentZeroAlloc(t *testing.T) {
	if obs.RaceEnabled {
		t.Skip("race-mode sync.Pool drops Puts at random; the allocs/op pin holds only without -race")
	}
	h := equivHeader()
	const n = 3*SyntheticBlockLen + 13
	if err := WriteSyntheticSegment(io.Discard, h, 5, n); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		if err := WriteSyntheticSegment(io.Discard, h, 5, n); err != nil {
			t.Fatal(err)
		}
	})
	// A GC mid-measurement can empty the block pool and force a one-off
	// refill; a real per-op allocation would read >= 1.
	if allocs >= 1 {
		t.Fatalf("WriteSyntheticSegment: %v allocs/op, want 0 per op", allocs)
	}
}

// TestSegmentTimeBoundsRejected: Start and Duration travel as uint32
// milliseconds; values that would silently wrap (negative or past
// ~49.7 days) must be rejected by every encoder entry point, so no
// writer can emit a header that fails to round-trip through
// ReadSegment.
func TestSegmentTimeBoundsRejected(t *testing.T) {
	bad := []SegmentHeader{
		{VideoID: "x", Duration: -time.Second},
		{VideoID: "x", Start: -time.Millisecond},
		{VideoID: "x", Start: MaxSegmentTime + time.Millisecond},
		{VideoID: "x", Duration: MaxSegmentTime + time.Millisecond},
	}
	for i, h := range bad {
		if err := WriteSegment(io.Discard, h, nil); err == nil {
			t.Errorf("case %d: WriteSegment accepted out-of-range time", i)
		}
		if err := WriteSyntheticSegment(io.Discard, h, 1, 8); err == nil {
			t.Errorf("case %d: WriteSyntheticSegment accepted out-of-range time", i)
		}
	}

	// The boundary itself is representable and must round-trip exactly.
	h := SegmentHeader{VideoID: "x", Start: MaxSegmentTime, Duration: MaxSegmentTime}
	var buf bytes.Buffer
	if err := WriteSegment(&buf, h, []byte("p")); err != nil {
		t.Fatalf("max segment time rejected: %v", err)
	}
	got, _, err := ReadSegment(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Start != MaxSegmentTime || got.Duration != MaxSegmentTime {
		t.Fatalf("boundary did not round-trip: %+v", got)
	}
}
