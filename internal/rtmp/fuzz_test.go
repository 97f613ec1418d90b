package rtmp

import (
	"bytes"
	"testing"
	"time"
)

// FuzzReadMessage hardens the ingest framing against arbitrary bytes:
// no panics, and accepted messages round-trip.
func FuzzReadMessage(f *testing.F) {
	for _, m := range []message{
		{Type: typePublish, Payload: []byte("stream")},
		{Type: typeVideo, Timestamp: 1500 * time.Millisecond, Payload: make([]byte, 512)},
		{Type: typeEOS},
	} {
		var buf bytes.Buffer
		if err := writeMessage(&buf, m); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
	f.Add([]byte{})
	// Truncated-header seeds: a peer can die after any byte of the 9-byte
	// frame header.
	{
		var buf bytes.Buffer
		if err := writeMessage(&buf, message{Type: typeVideo, Payload: make([]byte, 64)}); err != nil {
			f.Fatal(err)
		}
		whole := buf.Bytes()
		for _, cut := range []int{1, 4, 8} {
			f.Add(append([]byte(nil), whole[:cut]...))
		}
		// Mid-message cuts: a complete header whose declared payload is cut
		// short — the abrupt-disconnect shape readMessage must refuse
		// without panicking.
		f.Add(append([]byte(nil), whole[:9]...))
		f.Add(append([]byte(nil), whole[:9+32]...))
	}
	// A header declaring a huge payload followed by almost nothing: the
	// reader must bound allocation, not trust the length field.
	f.Add([]byte{byte(typeVideo), 0, 0, 0, 0, 0xff, 0xff, 0xff, 0xff, 'x'})
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := readMessage(bytes.NewReader(data))
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := writeMessage(&buf, m); err != nil {
			t.Fatalf("accepted message does not re-encode: %v", err)
		}
		if !bytes.Equal(buf.Bytes(), data[:buf.Len()]) {
			t.Fatal("re-encoded message differs from consumed bytes")
		}
	})
}
