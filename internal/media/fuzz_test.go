package media

import (
	"bytes"
	"encoding/binary"
	"testing"

	"sperke/internal/tiling"
)

// FuzzReadSegment hardens the segment decoder against arbitrary wire
// bytes: it must never panic, and any segment it accepts must re-encode
// to exactly the bytes it consumed.
func FuzzReadSegment(f *testing.F) {
	for i, payloadLen := range []int{0, 1, 100, 4096} {
		h := SegmentHeader{VideoID: "seed", Quality: i, Tile: tiling.TileID(i), Flags: uint8(i)}
		var buf bytes.Buffer
		if err := WriteSegment(&buf, h, SyntheticPayload(uint64(i), payloadLen)); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
	f.Add([]byte("SPRK"))
	f.Add([]byte{})
	// A well-formed header declaring the largest payload there is, over
	// three bytes of one.
	var lie bytes.Buffer
	if err := WriteSegment(&lie, SegmentHeader{VideoID: "x"}, nil); err != nil {
		f.Fatal(err)
	}
	oversold := append(lie.Bytes(), 1, 2, 3)
	binary.BigEndian.PutUint32(oversold[18:], MaxPayloadLen)
	f.Add(oversold)
	f.Fuzz(func(t *testing.T, data []byte) {
		h, payload, err := ReadSegment(bytes.NewReader(data))
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := WriteSegment(&buf, h, payload); err != nil {
			t.Fatalf("accepted segment does not re-encode: %v", err)
		}
		if !bytes.Equal(buf.Bytes(), data[:buf.Len()]) {
			t.Fatal("re-encoded segment differs from consumed bytes")
		}
	})
}
