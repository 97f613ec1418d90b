package rtmp

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"log/slog"
	"net"
	"sync"
	"time"

	"sperke/internal/media"
)

// Publisher is the broadcaster side of an ingest session: it performs
// the handshake, announces a stream name, and pushes media segments.
type Publisher struct {
	conn net.Conn
	bw   *bufio.Writer
}

// NewPublisher dials nothing — it wraps an established connection (so
// callers can shape it with netem.RateLimitedConn), handshakes, and
// publishes the named stream.
func NewPublisher(conn net.Conn, stream string) (*Publisher, error) {
	if stream == "" {
		return nil, fmt.Errorf("rtmp: empty stream name")
	}
	if err := handshake(conn); err != nil {
		return nil, err
	}
	p := &Publisher{conn: conn, bw: bufio.NewWriter(conn)}
	if err := writeMessage(p.bw, message{Type: typePublish, Payload: []byte(stream)}); err != nil {
		return nil, err
	}
	return p, p.bw.Flush()
}

// SendSegment pushes one media segment with the given media timestamp.
func (p *Publisher) SendSegment(ts time.Duration, h media.SegmentHeader, payload []byte) error {
	var buf bytes.Buffer
	buf.Grow(media.SegmentLen(h.VideoID, len(payload)))
	if err := media.WriteSegment(&buf, h, payload); err != nil {
		return err
	}
	if err := writeMessage(p.bw, message{Type: typeVideo, Timestamp: ts, Payload: buf.Bytes()}); err != nil {
		return err
	}
	return p.bw.Flush()
}

// Close ends the stream gracefully.
func (p *Publisher) Close() error {
	writeMessage(p.bw, message{Type: typeEOS})
	p.bw.Flush()
	return p.conn.Close()
}

// segmentHandler receives each segment a publisher pushes: the stream
// name, the receive wall time, the media timestamp, and the decoded
// segment.
type segmentHandler func(stream string, receivedAt time.Time, ts time.Duration, h media.SegmentHeader, payload []byte)

// Server is the ingest endpoint: it accepts publisher connections and
// delivers their segments to a handler (the live pipeline's server
// stage).
type Server struct {
	// OnSegment is required.
	OnSegment segmentHandler
	// OnPublish, if set, is told when a stream starts.
	OnPublish func(stream string)
	// OnEOS, if set, is told when a stream ends.
	OnEOS func(stream string)
	Log   *slog.Logger

	mu sync.Mutex
	ln net.Listener
}

// Serve accepts connections on l until l is closed. Each connection is
// handled on its own goroutine.
func (s *Server) Serve(l net.Listener) error {
	s.mu.Lock()
	s.ln = l
	s.mu.Unlock()
	for {
		conn, err := l.Accept()
		if err != nil {
			return err
		}
		go s.handle(conn)
	}
}

// Close stops the listener.
func (s *Server) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.ln != nil {
		return s.ln.Close()
	}
	return nil
}

func (s *Server) log() *slog.Logger {
	if s.Log != nil {
		return s.Log
	}
	return slog.Default()
}

func (s *Server) handle(conn net.Conn) {
	defer conn.Close()
	if err := acceptHandshake(conn); err != nil {
		s.log().Debug("rtmp: handshake failed", "err", err)
		return
	}
	br := bufio.NewReader(conn)
	first, err := readMessage(br)
	if err != nil || first.Type != typePublish || len(first.Payload) == 0 {
		s.log().Debug("rtmp: expected publish", "err", err)
		return
	}
	stream := string(first.Payload)
	if s.OnPublish != nil {
		s.OnPublish(stream)
	}
	for {
		m, err := readMessage(br)
		if err != nil {
			if err != io.EOF {
				s.log().Debug("rtmp: read", "stream", stream, "err", err)
			}
			return
		}
		switch m.Type {
		case typeVideo:
			h, payload, err := media.ReadSegment(bytes.NewReader(m.Payload))
			if err != nil {
				s.log().Debug("rtmp: bad segment", "stream", stream, "err", err)
				continue
			}
			if s.OnSegment != nil {
				s.OnSegment(stream, wallNow(), m.Timestamp, h, payload)
			}
		case typeEOS:
			if s.OnEOS != nil {
				s.OnEOS(stream)
			}
			return
		default:
			// Ignore unknown types, per robustness principle.
		}
	}
}
