package media

import (
	"bufio"
	"bytes"
	"errors"
	"io"
	"testing"
	"time"

	"sperke/internal/obs"
	"sperke/internal/tiling"
)

// writerEquivCases spans the alignment edges of the block generator —
// empty, sub-word, word-boundary, word+1, a payload one short of,
// exactly and one past the streaming block — a typical chunk, and every
// block class's edges (classPayloads).
var writerEquivCases = append([]int{0, 1, 7, 8, 9, obs.MinBlockLen - 1, obs.MinBlockLen, obs.MinBlockLen + 1, 109_000}, classPayloads()...)

// classPayloads are payload lengths whose equivHeader segment is one
// byte short of, exactly, and one byte past each block class, and one
// past the largest class.
func classPayloads() []int {
	over := SegmentLen(equivHeader().VideoID, 0)
	var ns []int
	for c := obs.MinBlockLen; c <= obs.MaxBlockLen; c <<= 1 {
		ns = append(ns, c-over-1, c-over, c-over+1)
	}
	return append(ns, 2*obs.MaxBlockLen+9)
}

func equivHeader() SegmentHeader {
	return SegmentHeader{
		VideoID:  "writer-equiv",
		Quality:  4,
		Flags:    FlagSVCLayer,
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

// lender is a destination that lends out its spare capacity the way
// bytes.Buffer does, and records which shape reached it: a Write handing
// that very room back (built in place) or bytes brought from elsewhere
// (streamed).
type lender struct {
	buf             []byte // len: bytes held; cap - len: room lent
	writes, inPlace int
}

func newLender(held []byte, room int) *lender {
	return &lender{buf: append(make([]byte, 0, len(held)+room), held...)}
}

func (l *lender) AvailableBuffer() []byte { return l.buf[len(l.buf):] }

func (l *lender) Write(p []byte) (int, error) {
	l.writes++
	if n := len(l.buf); len(p) > 0 && n < cap(l.buf) && &p[0] == &l.buf[:n+1][n] {
		l.inPlace++
	}
	l.buf = append(l.buf, p...)
	return len(p), nil
}

// streamOnly hides everything of a lender but Write, as a socket does.
type streamOnly struct{ l *lender }

func (s streamOnly) Write(p []byte) (int, error) { return s.l.Write(p) }

// checkSegmentForms writes one synthetic segment into every kind of
// destination and holds each to the reference: (i) a writer with no
// AvailableBuffer, (ii) room for exactly the segment, (iii) the same
// room behind bytes already held, which must survive in front of the
// segment, (iv) room one byte short, which must get the streamed shape
// rather than a grown buffer. All agree with WriteSegment over the
// materialized payload, or all reject the input with it. It returns the
// segment, nil if rejected.
func checkSegmentForms(t *testing.T, h SegmentHeader, seed uint64, n int) []byte {
	t.Helper()
	want, rerr := referenceSegment(h, seed, n)
	segLen := SegmentLen(h.VideoID, n)
	held := []byte("held before the segment")
	for _, d := range []struct {
		name          string
		held          []byte
		room          int
		hide, inPlace bool
	}{
		{name: "no AvailableBuffer", room: segLen, hide: true},
		{name: "exact room", room: segLen, inPlace: true},
		{name: "room behind held bytes", held: held, room: segLen, inPlace: true},
		{name: "one byte short", room: segLen - 1},
	} {
		l := newLender(d.held, d.room)
		var w io.Writer = l
		if d.hide {
			w = streamOnly{l}
		}
		err := WriteSyntheticSegment(w, h, seed, n)
		if (err == nil) != (rerr == nil) {
			t.Fatalf("%s: disagrees with the reference on validity: writer=%v reference=%v", d.name, err, rerr)
		}
		if err != nil {
			continue
		}
		if d.inPlace && (l.writes != 1 || l.inPlace != 1) {
			t.Fatalf("%s: %d writes, %d of the lent room; want the segment built there and written once", d.name, l.writes, l.inPlace)
		}
		if !d.inPlace && l.inPlace != 0 {
			t.Fatalf("%s: a write came from the lent room, want the streamed shape", d.name)
		}
		if !bytes.HasPrefix(l.buf, d.held) {
			t.Fatalf("%s: bytes already held were overwritten", d.name)
		}
		if !bytes.Equal(l.buf[len(d.held):], want) {
			t.Fatalf("%s: differs from WriteSegment(SyntheticPayload)", d.name)
		}
	}
	if rerr != nil {
		return nil
	}
	return want
}

// TestWriteSyntheticSegmentEquivalence pins both shapes of the one
// producer to its reference: streamed block by block or built in place,
// a synthetic segment is exactly WriteSegment over SyntheticPayload at
// every size class, and the result round-trips through ReadSegment. The
// standard library's lenders take the in-place shape as well.
func TestWriteSyntheticSegmentEquivalence(t *testing.T) {
	h := equivHeader()
	for _, n := range writerEquivCases {
		seg := checkSegmentForms(t, h, 77, n)
		if seg == nil {
			t.Fatalf("n=%d: rejected", n)
		}
		got, payload, err := ReadSegment(bytes.NewReader(seg))
		if err != nil {
			t.Fatalf("n=%d: segment does not round-trip: %v", n, err)
		}
		if got != h || !bytes.Equal(payload, SyntheticPayload(77, n)) {
			t.Fatalf("n=%d: round-trip header/payload mismatch", n)
		}

		buf := bytes.NewBuffer(make([]byte, 0, len(seg)))
		var sink bytes.Buffer
		bw := bufio.NewWriterSize(&sink, len(seg)+1)
		bw.WriteByte('>')
		if err := errors.Join(WriteSyntheticSegment(buf, h, 77, n), WriteSyntheticSegment(bw, h, 77, n), bw.Flush()); err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if !bytes.Equal(buf.Bytes(), seg) || !bytes.Equal(sink.Bytes()[1:], seg) || sink.Bytes()[0] != '>' {
			t.Fatalf("n=%d: bytes.Buffer or bufio.Writer differs from the reference", n)
		}
	}
}

// FuzzSyntheticSegmentForms drives both shapes and their reference with
// arbitrary headers, seeds and sizes: every destination must agree with
// WriteSegment(SyntheticPayload) byte for byte, or all reject the input
// (the ID's length comes from the tile, and an empty ID is invalid).
func FuzzSyntheticSegmentForms(f *testing.F) {
	f.Add(uint64(42), 1000, uint8(3), uint16(17))
	f.Add(uint64(0), 0, uint8(0), uint16(0))
	f.Add(uint64(1<<40), obs.MinBlockLen+5, uint8(255), uint16(65535))
	f.Add(uint64(9), obs.MinBlockLen-33, uint8(1), uint16(6))
	f.Fuzz(func(t *testing.T, seed uint64, n int, q uint8, tile uint16) {
		if n < 0 || n > 1<<17 {
			return
		}
		h := SegmentHeader{
			VideoID:  "fuzzing"[:tile%8],
			Quality:  int(q),
			Tile:     tiling.TileID(tile),
			Start:    time.Duration(seed%1000) * time.Millisecond,
			Duration: 2 * time.Second,
		}
		checkSegmentForms(t, h, seed, n)
	})
}

// streamedSegment and inPlaceSegment are the producer's two
// destinations as the serving tiers meet them: a typical chunk into a
// destination that cannot lend room, and the same body into a sized
// buffer, reused. The zero-alloc tests hold each to its budget;
// BenchmarkWriteSynthetic times them.
const benchPayloadLen = 3*obs.MinBlockLen + 13

func streamedSegment(tb testing.TB) func() { return streamedSegmentOf(tb, benchPayloadLen) }

func streamedSegmentOf(tb testing.TB, n int) func() {
	h := equivHeader()
	return func() {
		if err := WriteSyntheticSegment(io.Discard, h, 5, n); err != nil {
			tb.Fatal(err)
		}
	}
}

func inPlaceSegment(tb testing.TB) func() {
	h := equivHeader()
	l := newLender(nil, SegmentLen(h.VideoID, benchPayloadLen))
	return func() {
		l.buf = l.buf[:0]
		if err := WriteSyntheticSegment(l, h, 5, benchPayloadLen); err != nil {
			tb.Fatal(err)
		}
		if l.inPlace == 0 {
			tb.Fatal("a sized destination got the streamed shape")
		}
	}
}

// TestWriteSyntheticSegmentZeroAlloc pins the pooled shapes' scratch
// budget: once the block pool is warm, a segment of any class — built
// in the block when it fits, streamed through it otherwise — goes into
// a destination that lends nothing without allocating at all.
func TestWriteSyntheticSegmentZeroAlloc(t *testing.T) {
	if obs.RaceEnabled {
		t.Skip("race-mode sync.Pool drops Puts at random; the allocs/op pin holds only without -race")
	}
	for _, n := range classPayloads() {
		stream := streamedSegmentOf(t, n)
		stream()
		allocs := testing.AllocsPerRun(100, stream)
		t.Logf("a %d-byte segment into io.Discard: %v allocs/op", SegmentLen(equivHeader().VideoID, n), allocs)
		// A GC mid-measurement can empty a block pool and force a one-off
		// refill; a real per-op allocation would read >= 1.
		if allocs >= 1 {
			t.Fatalf("WriteSyntheticSegment(n=%d): %v allocs/op, want 0 per op", n, allocs)
		}
	}
}

// TestWriteSyntheticSegmentInPlaceZeroAlloc: the in-place shape touches
// no pool and no scratch, so into a reused sized buffer it allocates
// nothing, under -race too.
func TestWriteSyntheticSegmentInPlaceZeroAlloc(t *testing.T) {
	allocs := testing.AllocsPerRun(100, inPlaceSegment(t))
	t.Logf("built in place in a reused buffer: %v allocs/op", allocs)
	if allocs != 0 {
		t.Fatalf("WriteSyntheticSegment in place: %v allocs/op, want 0", allocs)
	}
}

func BenchmarkWriteSynthetic(b *testing.B) {
	for _, bc := range []struct {
		name string
		body func(testing.TB) func()
	}{{"streamed", streamedSegment}, {"in-place", inPlaceSegment}} {
		b.Run(bc.name, func(b *testing.B) {
			write := bc.body(b)
			b.SetBytes(int64(SegmentLen(equivHeader().VideoID, benchPayloadLen)))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				write()
			}
		})
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
		{VideoID: "x", Start: maxSegmentTime + time.Millisecond},
		{VideoID: "x", Duration: maxSegmentTime + time.Millisecond},
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
	h := SegmentHeader{VideoID: "x", Start: maxSegmentTime, Duration: maxSegmentTime}
	var buf bytes.Buffer
	if err := WriteSegment(&buf, h, []byte("p")); err != nil {
		t.Fatalf("max segment time rejected: %v", err)
	}
	got, _, err := ReadSegment(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Start != maxSegmentTime || got.Duration != maxSegmentTime {
		t.Fatalf("boundary did not round-trip: %+v", got)
	}
}
