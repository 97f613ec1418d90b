package rtmp

import (
	"bytes"
	"errors"
	"io"
	"net"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"sperke/internal/media"
)

func TestMessageRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	m := message{Type: typeVideo, Timestamp: 1500 * time.Millisecond, Payload: []byte("hello")}
	if err := writeMessage(&buf, m); err != nil {
		t.Fatal(err)
	}
	got, err := readMessage(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Type != m.Type || got.Timestamp != m.Timestamp || !bytes.Equal(got.Payload, m.Payload) {
		t.Fatalf("got %+v, want %+v", got, m)
	}
}

func TestMessageRoundTripProperty(t *testing.T) {
	f := func(typ uint8, tsMs uint32, payload []byte) bool {
		var buf bytes.Buffer
		m := message{Type: messageType(typ), Timestamp: time.Duration(tsMs) * time.Millisecond, Payload: payload}
		if err := writeMessage(&buf, m); err != nil {
			return false
		}
		got, err := readMessage(&buf)
		if err != nil {
			return false
		}
		return got.Type == m.Type && got.Timestamp == m.Timestamp && bytes.Equal(got.Payload, m.Payload)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestMessageEmptyPayload(t *testing.T) {
	var buf bytes.Buffer
	if err := writeMessage(&buf, message{Type: typeEOS}); err != nil {
		t.Fatal(err)
	}
	got, err := readMessage(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Type != typeEOS || len(got.Payload) != 0 {
		t.Fatalf("got %+v", got)
	}
}

func TestReadMessageTruncated(t *testing.T) {
	var buf bytes.Buffer
	writeMessage(&buf, message{Type: typeVideo, Payload: make([]byte, 100)})
	data := buf.Bytes()
	for _, cut := range []int{0, 5, 9, 50} {
		if _, err := readMessage(bytes.NewReader(data[:cut])); err == nil {
			t.Fatalf("truncation at %d undetected", cut)
		}
	}
}

// connPair is the two ends of a loopback TCP connection, closed when the
// test ends.
func connPair(t *testing.T) (client, server net.Conn) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	if client, err = net.Dial("tcp", ln.Addr().String()); err != nil {
		t.Fatal(err)
	}
	if server, err = ln.Accept(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		client.Close()
		server.Close()
	})
	return client, server
}

func TestHandshakeOverPipe(t *testing.T) {
	client, server := connPair(t)
	defer client.Close()
	defer server.Close()
	errc := make(chan error, 1)
	go func() { errc <- acceptHandshake(server) }()
	if err := handshake(client); err != nil {
		t.Fatal(err)
	}
	if err := <-errc; err != nil {
		t.Fatal(err)
	}
}

func TestHandshakeRejectsWrongVersion(t *testing.T) {
	client, server := connPair(t)
	defer client.Close()
	defer server.Close()
	go func() {
		var junk [17]byte
		junk[0] = 99
		client.Write(junk[:])
		io.ReadAll(client)
	}()
	if err := acceptHandshake(server); !errors.Is(err, ErrBadHandshake) {
		t.Fatalf("err = %v, want ErrBadHandshake", err)
	}
}

func TestPublisherToServerEndToEnd(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	type rx struct {
		stream string
		ts     time.Duration
		h      media.SegmentHeader
		n      int
	}
	rxs := make(chan rx, 16)
	published := make(chan string, 1)
	ended := make(chan string, 1)
	srv := &Server{
		OnSegment: func(stream string, at time.Time, ts time.Duration, h media.SegmentHeader, payload []byte) {
			rxs <- rx{stream, ts, h, len(payload)}
		},
		OnPublish: func(s string) { published <- s },
		OnEOS:     func(s string) { ended <- s },
	}
	go srv.Serve(ln)
	defer srv.Close()

	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	pub, err := NewPublisher(conn, "concert")
	if err != nil {
		t.Fatal(err)
	}
	select {
	case s := <-published:
		if s != "concert" {
			t.Fatalf("published %q", s)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("publish not seen")
	}
	for i := 0; i < 3; i++ {
		h := media.SegmentHeader{VideoID: "concert", Quality: 2, Tile: 1, Flags: media.FlagLive,
			Start: time.Duration(i) * time.Second, Duration: time.Second}
		payload := media.SyntheticPayload(uint64(i), 5000)
		if err := pub.SendSegment(time.Duration(i)*time.Second, h, payload); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 3; i++ {
		select {
		case r := <-rxs:
			if r.stream != "concert" || r.n != 5000 {
				t.Fatalf("segment %d: %+v", i, r)
			}
			if r.ts != time.Duration(i)*time.Second {
				t.Fatalf("segment %d timestamp %v", i, r.ts)
			}
			if r.h.Flags&media.FlagLive == 0 {
				t.Fatal("live flag lost")
			}
		case <-time.After(2 * time.Second):
			t.Fatalf("segment %d not received", i)
		}
	}
	pub.Close()
	select {
	case s := <-ended:
		if s != "concert" {
			t.Fatalf("EOS for %q", s)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("EOS not seen")
	}
}

func TestPublisherEmptyStreamName(t *testing.T) {
	client, server := connPair(t)
	defer client.Close()
	defer server.Close()
	if _, err := NewPublisher(client, ""); err == nil {
		t.Fatal("empty stream accepted")
	}
}

func TestServerIgnoresCorruptSegments(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	good := 0
	srv := &Server{OnSegment: func(string, time.Time, time.Duration, media.SegmentHeader, []byte) {
		mu.Lock()
		good++
		mu.Unlock()
	}}
	go srv.Serve(ln)
	defer srv.Close()

	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if err := handshake(conn); err != nil {
		t.Fatal(err)
	}
	writeMessage(conn, message{Type: typePublish, Payload: []byte("s")})
	// A garbage video message, then a valid one.
	writeMessage(conn, message{Type: typeVideo, Payload: []byte("garbage")})
	var seg bytes.Buffer
	media.WriteSegment(&seg, media.SegmentHeader{VideoID: "s"}, []byte("ok"))
	writeMessage(conn, message{Type: typeVideo, Payload: seg.Bytes()})

	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		mu.Lock()
		g := good
		mu.Unlock()
		if g == 1 {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatal("valid segment after garbage not delivered")
}

func TestWriteMessageOversizedPayload(t *testing.T) {
	// Don't allocate maxPayload bytes; fake the length via a huge slice
	// header is not possible safely — use a just-over-limit empty-backed
	// check through the exported constant instead.
	m := message{Type: typeVideo, Payload: make([]byte, 0)}
	if err := writeMessage(io.Discard, m); err != nil {
		t.Fatal(err)
	}
	// Craft a frame declaring an oversized payload and confirm the
	// reader rejects it before allocating.
	var h [9]byte
	h[0] = byte(typeVideo)
	h[5] = 0xff
	h[6] = 0xff
	h[7] = 0xff
	h[8] = 0xff
	if _, err := readMessage(bytes.NewReader(h[:])); !errors.Is(err, ErrPayloadSize) {
		t.Fatalf("err = %v, want ErrPayloadSize", err)
	}
}

func TestServerIgnoresUnknownMessageTypes(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	got := make(chan struct{}, 1)
	srv := &Server{OnSegment: func(string, time.Time, time.Duration, media.SegmentHeader, []byte) {
		select {
		case got <- struct{}{}:
		default:
		}
	}}
	go srv.Serve(ln)
	defer srv.Close()

	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if err := handshake(conn); err != nil {
		t.Fatal(err)
	}
	writeMessage(conn, message{Type: typePublish, Payload: []byte("s")})
	writeMessage(conn, message{Type: messageType(42), Payload: []byte("mystery")})
	var seg bytes.Buffer
	media.WriteSegment(&seg, media.SegmentHeader{VideoID: "s"}, []byte("ok"))
	writeMessage(conn, message{Type: typeVideo, Payload: seg.Bytes()})
	select {
	case <-got:
	case <-time.After(2 * time.Second):
		t.Fatal("segment after unknown message type not delivered")
	}
}

func TestServerRejectsNonPublishFirst(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	called := false
	srv := &Server{OnSegment: func(string, time.Time, time.Duration, media.SegmentHeader, []byte) {
		called = true
	}}
	go srv.Serve(ln)
	defer srv.Close()

	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if err := handshake(conn); err != nil {
		t.Fatal(err)
	}
	// Send a video message without publishing first: the server must
	// hang up.
	var seg bytes.Buffer
	media.WriteSegment(&seg, media.SegmentHeader{VideoID: "s"}, []byte("ok"))
	writeMessage(conn, message{Type: typeVideo, Payload: seg.Bytes()})
	// The connection should be closed by the server shortly.
	conn.SetReadDeadline(time.Now().Add(2 * time.Second))
	buf := make([]byte, 1)
	if _, err := conn.Read(buf); err == nil {
		t.Fatal("server kept the connection after a protocol violation")
	}
	if called {
		t.Fatal("segment delivered without publish")
	}
}

func TestPublisherCloseSendsEOS(t *testing.T) {
	client, server := connPair(t)
	done := make(chan message, 4)
	go func() {
		acceptHandshake(server)
		for {
			m, err := readMessage(server)
			if err != nil {
				close(done)
				return
			}
			done <- m
		}
	}()
	pub, err := NewPublisher(client, "s")
	if err != nil {
		t.Fatal(err)
	}
	if m := <-done; m.Type != typePublish {
		t.Fatalf("first message %v", m.Type)
	}
	pub.Close()
	if m := <-done; m.Type != typeEOS {
		t.Fatalf("close sent %v, want EOS", m.Type)
	}
}
