package media

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"runtime"
	"sperke/internal/sphere"
	"sperke/internal/trace"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"sperke/internal/tiling"
)

func TestSegmentRoundTrip(t *testing.T) {
	h := SegmentHeader{
		VideoID:  "concert-360",
		Quality:  3,
		Flags:    FlagSVCLayer,
		Tile:     17,
		Start:    4 * time.Second,
		Duration: 2 * time.Second,
	}
	payload := SyntheticPayload(42, 1000)
	var buf bytes.Buffer
	if err := WriteSegment(&buf, h, payload); err != nil {
		t.Fatal(err)
	}
	if buf.Len() != SegmentLen(h.VideoID, len(payload)) {
		t.Fatalf("encoded %d bytes, SegmentLen says %d", buf.Len(), SegmentLen(h.VideoID, len(payload)))
	}
	got, gotPayload, err := ReadSegment(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got != h {
		t.Fatalf("header = %+v, want %+v", got, h)
	}
	if !bytes.Equal(gotPayload, payload) {
		t.Fatal("payload mismatch")
	}
}

func TestSegmentRoundTripProperty(t *testing.T) {
	f := func(q uint8, tile uint16, startMs, durMs uint16, seed uint64, n uint16) bool {
		h := SegmentHeader{
			VideoID:  "v",
			Quality:  int(q),
			Tile:     tiling.TileID(tile),
			Start:    time.Duration(startMs) * time.Millisecond,
			Duration: time.Duration(durMs) * time.Millisecond,
		}
		payload := SyntheticPayload(seed, int(n))
		var buf bytes.Buffer
		if err := WriteSegment(&buf, h, payload); err != nil {
			return false
		}
		got, gotPayload, err := ReadSegment(&buf)
		return err == nil && got == h && bytes.Equal(gotPayload, payload)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSegmentEmptyPayload(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteSegment(&buf, SegmentHeader{VideoID: "x"}, nil); err != nil {
		t.Fatal(err)
	}
	_, payload, err := ReadSegment(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(payload) != 0 {
		t.Fatal("nonempty payload for empty write")
	}
}

func TestWriteSegmentValidation(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteSegment(&buf, SegmentHeader{VideoID: ""}, nil); err == nil {
		t.Fatal("empty video ID accepted")
	}
	if err := WriteSegment(&buf, SegmentHeader{VideoID: strings.Repeat("a", 256)}, nil); err == nil {
		t.Fatal("256-byte video ID accepted")
	}
	if err := WriteSegment(&buf, SegmentHeader{VideoID: "x", Quality: 300}, nil); err == nil {
		t.Fatal("quality 300 accepted")
	}
	if err := WriteSegment(&buf, SegmentHeader{VideoID: "x", Tile: 70000}, nil); err == nil {
		t.Fatal("tile 70000 accepted")
	}
}

func TestReadSegmentBadMagic(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteSegment(&buf, SegmentHeader{VideoID: "x"}, []byte("hi")); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	data[0] = 'X'
	_, _, err := ReadSegment(bytes.NewReader(data))
	if !errors.Is(err, ErrBadMagic) {
		t.Fatalf("err = %v, want ErrBadMagic", err)
	}
}

func TestReadSegmentBadVersion(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteSegment(&buf, SegmentHeader{VideoID: "x"}, []byte("hi")); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	data[4] = 99
	_, _, err := ReadSegment(bytes.NewReader(data))
	if !errors.Is(err, ErrBadVersion) {
		t.Fatalf("err = %v, want ErrBadVersion", err)
	}
}

// TestReadSegmentCorruptPayload: one flipped bit anywhere in the
// payload, or in the header's CRC field, is ErrCorrupt. The lengths
// straddle the CRC kernel's 256-byte block, and the flipped payload
// bytes sit on either side of the first block's end.
func TestReadSegmentCorruptPayload(t *testing.T) {
	const id = "x"
	for _, n := range []int{11, 255, 256, 257, 44_000, 133_000} {
		var buf bytes.Buffer
		if err := WriteSegment(&buf, SegmentHeader{VideoID: id}, SyntheticPayload(uint64(n), n)); err != nil {
			t.Fatal(err)
		}
		payloadAt := SegmentLen(id, 0)
		flips := map[string]int{"CRC field": 22}
		for name, i := range map[string]int{"first": 0, "255th": 254, "256th": 255, "last": n - 1} {
			if i < n {
				flips[name+" payload byte"] = payloadAt + i
			}
		}
		for name, at := range flips {
			data := bytes.Clone(buf.Bytes())
			data[at] ^= 0x10
			if _, _, err := ReadSegment(bytes.NewReader(data)); !errors.Is(err, ErrCorrupt) {
				t.Errorf("%d-byte payload, bit flipped in the %s: err = %v, want ErrCorrupt", n, name, err)
			}
		}
	}
}

func TestReadSegmentTruncated(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteSegment(&buf, SegmentHeader{VideoID: "concert"}, SyntheticPayload(1, 500)); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	for _, cut := range []int{0, 3, headerFixedLen - 1, headerFixedLen + 2, len(data) - 1} {
		_, _, err := ReadSegment(bytes.NewReader(data[:cut]))
		if err == nil {
			t.Fatalf("truncation at %d not detected", cut)
		}
		if !errors.Is(err, io.EOF) && !errors.Is(err, io.ErrUnexpectedEOF) && !errors.Is(err, ErrBadMagic) {
			t.Fatalf("truncation at %d: unexpected error %v", cut, err)
		}
	}
}

// TestReadSegmentSizing: how far a header's declared payload length is
// believed depends on what the reader can say about itself. Behind an
// *io.LimitedReader the segment must end where the limit does — one
// byte either way is refused, with nothing read past the ID; from a
// plain reader a payload longer than unsizedFirstLen still decodes, grown
// as it arrives, and a declared length the bytes never back costs one
// first block, not the declared size.
func TestReadSegmentSizing(t *testing.T) {
	h := SegmentHeader{VideoID: "sized", Quality: 2, Tile: 7}
	want := SyntheticPayload(9, 2*unsizedFirstLen+12345)
	var buf bytes.Buffer
	if err := WriteSegment(&buf, h, want); err != nil {
		t.Fatal(err)
	}
	seg := buf.Bytes()

	for _, off := range []int64{-1, 0, 1} {
		src := bytes.NewReader(seg)
		_, payload, err := ReadSegment(&io.LimitedReader{R: src, N: int64(len(seg)) + off})
		if off == 0 {
			if err != nil || !bytes.Equal(payload, want) {
				t.Fatalf("limit at the segment's end: err %v, %d payload bytes of %d", err, len(payload), len(want))
			}
			continue
		}
		if err == nil || src.Len() != len(want) {
			t.Fatalf("limit %+d from the segment's end: err %v with %d bytes unread, want a refusal before the payload's %d", off, err, src.Len(), len(want))
		}
	}

	got, payload, err := ReadSegment(bytes.NewReader(seg))
	if err != nil || got != h || !bytes.Equal(payload, want) {
		t.Fatalf("unsized read: err %v, header %+v, %d payload bytes of %d", err, got, len(payload), len(want))
	}
	for _, cut := range []int{len(seg) - 1, len(seg) - len(want) + unsizedFirstLen, len(seg) - len(want) + 1} {
		if _, _, err := ReadSegment(bytes.NewReader(seg[:cut])); !errors.Is(err, io.EOF) && !errors.Is(err, io.ErrUnexpectedEOF) {
			t.Fatalf("unsized read cut at %d: err %v, want an EOF", cut, err)
		}
	}

	oversold := bytes.Clone(seg[:len(seg)-len(want)+3])
	binary.BigEndian.PutUint32(oversold[18:], MaxPayloadLen)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, _, err = ReadSegment(bytes.NewReader(oversold))
	runtime.ReadMemStats(&after)
	if err == nil || after.TotalAlloc-before.TotalAlloc > 2*unsizedFirstLen {
		t.Fatalf("3 bytes under a %d-byte claim: err %v, %d B allocated; want an error and at most one first block", MaxPayloadLen, err, after.TotalAlloc-before.TotalAlloc)
	}
}

func TestReadSegmentStream(t *testing.T) {
	// Multiple segments back to back decode in order: each header's
	// payload length frames the next.
	var buf bytes.Buffer
	for i := 0; i < 5; i++ {
		h := SegmentHeader{VideoID: "s", Quality: i, Tile: tiling.TileID(i), Flags: FlagSVCLayer}
		if err := WriteSegment(&buf, h, SyntheticPayload(uint64(i), 100*i)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 5; i++ {
		h, payload, err := ReadSegment(&buf)
		if err != nil {
			t.Fatalf("segment %d: %v", i, err)
		}
		if h.Quality != i || len(payload) != 100*i {
			t.Fatalf("segment %d decoded out of order: %+v", i, h)
		}
	}
	if _, _, err := ReadSegment(&buf); !errors.Is(err, io.EOF) {
		t.Fatalf("expected EOF at stream end, got %v", err)
	}
}

func TestSyntheticPayloadDeterministic(t *testing.T) {
	a := SyntheticPayload(7, 333)
	b := SyntheticPayload(7, 333)
	if !bytes.Equal(a, b) {
		t.Fatal("same seed differs")
	}
	c := SyntheticPayload(8, 333)
	if bytes.Equal(a, c) {
		t.Fatal("different seeds identical")
	}
	if len(SyntheticPayload(1, 0)) != 0 {
		t.Fatal("zero-length payload")
	}
}

func TestVersioningSchemeCounts(t *testing.T) {
	if OculusScheme.Versions() != 88 {
		t.Fatalf("Oculus versions = %d, want 88 (the paper's figure)", OculusScheme.Versions())
	}
}

func TestVersioningStorageExceedsTiling(t *testing.T) {
	v := testVideo(EncodingAVC)
	ratio := OculusScheme.StorageRatio(v)
	// 88 versions of (0.25 + 0.75*0.25) ≈ 38.5× the panorama per quality,
	// versus tiling's 1× per quality: expect a large multiple.
	if ratio < 10 {
		t.Fatalf("versioning/tiling storage ratio = %.1f, want >10", ratio)
	}
}

func TestVersioningDeliverySmallerThanPanorama(t *testing.T) {
	v := testVideo(EncodingAVC)
	// A versioning viewer is delivered exactly one version per interval.
	d := OculusScheme.versionBytes(v, 4, 0)
	p := v.PanoramaBytes(4, 0)
	if d >= p {
		t.Fatalf("versioning delivery %d not below full panorama %d", d, p)
	}
}

func TestVersionForCells(t *testing.T) {
	s := OculusScheme // 22 × 4
	y0, p0 := s.versionFor(sphere.Orientation{Yaw: -180, Pitch: -90})
	if y0 != 0 || p0 != 0 {
		t.Fatalf("corner cell = (%d,%d)", y0, p0)
	}
	yMax, pMax := s.versionFor(sphere.Orientation{Yaw: 179.9, Pitch: 90})
	if yMax != 21 || pMax != 3 {
		t.Fatalf("far corner = (%d,%d), want (21,3)", yMax, pMax)
	}
	// A yaw boundary sits every 360/22 ≈ 16.36°.
	a, _ := s.versionFor(sphere.Orientation{Yaw: 0})
	b, _ := s.versionFor(sphere.Orientation{Yaw: 17})
	if a == b {
		t.Fatal("17° of yaw did not cross a version boundary")
	}
}

func TestSessionDeliverySwitchTax(t *testing.T) {
	v := testVideo(EncodingAVC)
	// A still viewer: one version per chunk, no switches.
	still := &trace.HeadTrace{Samples: []trace.Sample{
		{At: 0, View: sphere.Orientation{Yaw: 5}},
		{At: v.Duration, View: sphere.Orientation{Yaw: 5}},
	}}
	bytesStill, swStill := OculusScheme.SessionDelivery(v, 4, still)
	if swStill != 0 {
		t.Fatalf("still viewer switched %d times", swStill)
	}
	if bytesStill <= 0 {
		t.Fatal("no delivery for still viewer")
	}
	// A panning viewer (25°/s) crosses a 16.4° cell boundary roughly
	// every 0.65 s — multiple switches per 2 s chunk.
	pan := &trace.HeadTrace{}
	for ts := time.Duration(0); ts <= v.Duration; ts += 100 * time.Millisecond {
		pan.Samples = append(pan.Samples, trace.Sample{
			At: ts, View: sphere.Orientation{Yaw: sphere.NormalizeYaw(25 * ts.Seconds())},
		})
	}
	bytesPan, swPan := OculusScheme.SessionDelivery(v, 4, pan)
	if swPan == 0 {
		t.Fatal("panning viewer never switched versions")
	}
	if bytesPan <= bytesStill {
		t.Fatalf("switch tax invisible: pan %d ≤ still %d", bytesPan, bytesStill)
	}
}
