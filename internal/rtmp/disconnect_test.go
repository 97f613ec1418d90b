package rtmp

import (
	"net"
	"testing"
	"time"

	"sperke/internal/media"
)

// TestServerSurvivesAbruptDisconnect severs a publisher's connection in
// the middle of a video message and asserts the server neither panics
// nor stops serving: a fresh publisher on the same server must still
// complete a full session.
func TestServerSurvivesAbruptDisconnect(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	segments := make(chan string, 16)
	ended := make(chan string, 2)
	srv := &Server{
		OnSegment: func(stream string, _ time.Time, _ time.Duration, _ media.SegmentHeader, _ []byte) {
			segments <- stream
		},
		OnEOS: func(s string) { ended <- s },
	}
	go srv.Serve(ln)
	defer srv.Close()

	// First publisher: handshake, publish, then die mid-message — a
	// header promising a payload that never arrives.
	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	if err := handshake(conn); err != nil {
		t.Fatal(err)
	}
	if err := writeMessage(conn, message{Type: typePublish, Payload: []byte("doomed")}); err != nil {
		t.Fatal(err)
	}
	partial := []byte{byte(typeVideo), 0, 0, 0, 0, 0, 0, 64, 0} // declares 16384 bytes
	if _, err := conn.Write(partial); err != nil {
		t.Fatal(err)
	}
	if _, err := conn.Write(make([]byte, 100)); err != nil { // a fraction of the payload
		t.Fatal(err)
	}
	conn.Close() // abrupt: no EOS, payload cut mid-flight

	// Second publisher: the server must still accept and serve a complete
	// session.
	conn2, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	pub, err := NewPublisher(conn2, "survivor")
	if err != nil {
		t.Fatalf("server stopped accepting after an abrupt disconnect: %v", err)
	}
	h := media.SegmentHeader{VideoID: "survivor", Quality: 1, Start: 0, Duration: time.Second}
	if err := pub.SendSegment(0, h, media.SyntheticPayload(1, 2048)); err != nil {
		t.Fatal(err)
	}
	select {
	case s := <-segments:
		if s != "survivor" {
			t.Fatalf("segment from %q, want the new session", s)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("no segment delivered after the disconnect")
	}
	pub.Close()
	select {
	case s := <-ended:
		if s != "survivor" {
			t.Fatalf("EOS for %q", s)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("clean session did not end")
	}
	// The doomed session must not have surfaced a segment or an EOS.
	select {
	case s := <-segments:
		t.Fatalf("unexpected extra segment from %q", s)
	case s := <-ended:
		t.Fatalf("unexpected EOS from %q", s)
	default:
	}
}
