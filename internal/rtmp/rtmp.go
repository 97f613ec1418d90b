// Package rtmp implements the live upload path of §3.4.1: a compact
// RTMP-like message protocol over TCP. The paper's measurements find
// all three commercial platforms (Facebook, YouTube, Periscope) ingest
// live 360° broadcasts over RTMP [7], and Periscope also pushes to
// viewers over it.
//
// This implementation models the public specification's shape — a
// version handshake, then typed, timestamped messages — while
// simplifying the chunk-interleaving layer: each message carries its
// full length up front and its payload follows contiguously. That
// preserves everything the streaming pipeline cares about (framing,
// timestamps, ordering, head-of-line behaviour on a single TCP
// connection) without the bookkeeping RTMP needs for multiplexing many
// streams on one connection.
//
// Wire format after the handshake, all integers big-endian:
//
//	offset size field
//	0      1    message type
//	1      4    timestamp, milliseconds
//	5      4    payload length
//	9      ...  payload
package rtmp

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"time"
)

// Protocol version, mirroring RTMP's version 3.
const version = 3

// messageType tags a message.
type messageType uint8

// Message types (a subset shaped like RTMP's).
const (
	// typePublish starts a named stream; payload is the stream name.
	typePublish messageType = 8
	// typeVideo carries one media segment (package media container).
	typeVideo messageType = 9
	// typeEOS ends the stream.
	typeEOS messageType = 10
)

// maxPayload bounds a single message (a segment plus slack).
const maxPayload = 96 << 20

// message is one protocol message.
type message struct {
	Type messageType
	// Timestamp is the media timestamp of the payload.
	Timestamp time.Duration
	Payload   []byte
}

// Errors.
var (
	ErrBadHandshake = errors.New("rtmp: bad handshake")
	ErrPayloadSize  = errors.New("rtmp: payload exceeds maximum")
)

// wallNow is the package's only wall-clock read: handshake stamps and
// the Server's segment receive times.
func wallNow() time.Time { return time.Now() }

// handshakeMillis is the C1/S1 timestamp: a wall-clock nonce on real
// deployments, but never a scheduling input.
func handshakeMillis() uint64 { return uint64(wallNow().UnixMilli()) }

// handshake performs the client side of the version handshake: send
// C0 (version) + C1 (8-byte timestamp + 8 random-ish bytes), expect
// S0+S1 back.
func handshake(rw io.ReadWriter) error {
	var c [17]byte
	c[0] = version
	binary.BigEndian.PutUint64(c[1:], handshakeMillis())
	if _, err := rw.Write(c[:]); err != nil {
		return err
	}
	var s [17]byte
	if _, err := io.ReadFull(rw, s[:]); err != nil {
		return err
	}
	if s[0] != version {
		return fmt.Errorf("%w: server version %d", ErrBadHandshake, s[0])
	}
	return nil
}

// acceptHandshake performs the server side.
func acceptHandshake(rw io.ReadWriter) error {
	var c [17]byte
	if _, err := io.ReadFull(rw, c[:]); err != nil {
		return err
	}
	if c[0] != version {
		return fmt.Errorf("%w: client version %d", ErrBadHandshake, c[0])
	}
	var s [17]byte
	s[0] = version
	binary.BigEndian.PutUint64(s[1:], handshakeMillis())
	_, err := rw.Write(s[:])
	return err
}

// writeMessage frames and sends one message.
func writeMessage(w io.Writer, m message) error {
	if len(m.Payload) > maxPayload {
		return ErrPayloadSize
	}
	var h [9]byte
	h[0] = byte(m.Type)
	binary.BigEndian.PutUint32(h[1:], uint32(m.Timestamp/time.Millisecond))
	binary.BigEndian.PutUint32(h[5:], uint32(len(m.Payload)))
	if _, err := w.Write(h[:]); err != nil {
		return err
	}
	if len(m.Payload) == 0 {
		return nil
	}
	_, err := w.Write(m.Payload)
	return err
}

// readMessage reads one framed message.
func readMessage(r io.Reader) (message, error) {
	var h [9]byte
	if _, err := io.ReadFull(r, h[:]); err != nil {
		return message{}, err
	}
	n := binary.BigEndian.Uint32(h[5:])
	if n > maxPayload {
		return message{}, ErrPayloadSize
	}
	m := message{
		Type:      messageType(h[0]),
		Timestamp: time.Duration(binary.BigEndian.Uint32(h[1:])) * time.Millisecond,
	}
	if n > 0 {
		m.Payload = make([]byte, n)
		if _, err := io.ReadFull(r, m.Payload); err != nil {
			return message{}, err
		}
	}
	return m, nil
}
