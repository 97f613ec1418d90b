package media

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"time"

	"sperke/internal/obs"
	"sperke/internal/tiling"
)

// Segment container wire format.
//
// Sperke's DASH server and live pipeline move chunks as self-describing
// binary segments so a receiver can validate and demultiplex them
// without out-of-band state:
//
//	offset size field
//	0      4    magic "SPRK"
//	4      1    container version (1)
//	5      1    quality level / SVC layer index
//	6      1    flags (bit 0: SVC layer, bit 1: live)
//	7      1    video-ID length n (1..255)
//	8      2    tile ID (big endian)
//	10     4    chunk start, milliseconds
//	14     4    chunk duration, milliseconds
//	18     4    payload length
//	22     4    CRC-32 (IEEE) of payload
//	26     n    video ID (UTF-8)
//	26+n   ...  payload
//
// All multi-byte fields are big-endian, per network convention.

// FlagSVCLayer, a segment flag, marks the payload as one SVC layer
// rather than a full single-layer chunk.
const FlagSVCLayer = 1 << 0

const (
	segmentMagic   = "SPRK"
	segmentVersion = 1
	headerFixedLen = 26
	// MaxVideoIDLen is the longest video ID a segment header can carry:
	// its length field is one byte.
	MaxVideoIDLen = 255
	// MaxPayloadLen caps a single segment at 64 MiB — far above any
	// realistic chunk and small enough to reject corrupt length fields
	// before allocating.
	MaxPayloadLen = 64 << 20
	// maxSegmentTime is the largest Start or Duration the wire format
	// can carry: both travel as uint32 milliseconds, so anything past
	// ~49.7 days would silently wrap and fail to round-trip through
	// ReadSegment. validateSegment rejects it instead.
	maxSegmentTime = time.Duration(math.MaxUint32) * time.Millisecond
)

// A block boundary must fall on a word of the generator (see
// synthStream.fill): a block size that is not a multiple of 8 would
// shift every byte after the first block, so it does not compile. Every
// class of obs.Blocks is a multiple of the smallest.
var _ [0]struct{} = [obs.MinBlockLen % 8]struct{}{}

// SegmentHeader describes one chunk (or one SVC layer of a chunk) on the
// wire.
type SegmentHeader struct {
	VideoID  string
	Quality  int // quality level, or layer index when FlagSVCLayer is set
	Flags    uint8
	Tile     tiling.TileID
	Start    time.Duration
	Duration time.Duration
}

// Errors returned by the segment codec.
var (
	ErrBadMagic   = errors.New("media: segment has bad magic")
	ErrBadVersion = errors.New("media: unsupported segment version")
	ErrCorrupt    = errors.New("media: segment payload CRC mismatch")
)

// validateSegment checks header and payload bounds shared by every
// encoder entry point.
func validateSegment(h SegmentHeader, payloadLen int) error {
	if len(h.VideoID) == 0 || len(h.VideoID) > MaxVideoIDLen {
		return fmt.Errorf("media: video ID length %d out of range [1,%d]", len(h.VideoID), MaxVideoIDLen)
	}
	if payloadLen > MaxPayloadLen {
		return fmt.Errorf("media: payload %d exceeds max %d", payloadLen, MaxPayloadLen)
	}
	if h.Quality < 0 || h.Quality > 255 {
		return fmt.Errorf("media: quality %d out of range [0,255]", h.Quality)
	}
	if h.Tile < 0 || h.Tile > 0xffff {
		return fmt.Errorf("media: tile %d out of range", h.Tile)
	}
	if h.Start < 0 || h.Start > maxSegmentTime {
		return fmt.Errorf("media: start %v outside [0, %v]", h.Start, maxSegmentTime)
	}
	if h.Duration < 0 || h.Duration > maxSegmentTime {
		return fmt.Errorf("media: duration %v outside [0, %v]", h.Duration, maxSegmentTime)
	}
	return nil
}

// appendSegmentHeader appends the fixed header and video ID for a
// payload of payloadLen bytes with the given CRC. Callers must have
// validated h first.
func appendSegmentHeader(dst []byte, h SegmentHeader, payloadLen int, crc uint32) []byte {
	var fixed [headerFixedLen]byte
	copy(fixed[:], segmentMagic)
	fixed[4] = segmentVersion
	fixed[5] = uint8(h.Quality)
	fixed[6] = h.Flags
	fixed[7] = uint8(len(h.VideoID))
	binary.BigEndian.PutUint16(fixed[8:], uint16(h.Tile))
	binary.BigEndian.PutUint32(fixed[10:], uint32(h.Start/time.Millisecond))
	binary.BigEndian.PutUint32(fixed[14:], uint32(h.Duration/time.Millisecond))
	binary.BigEndian.PutUint32(fixed[18:], uint32(payloadLen))
	binary.BigEndian.PutUint32(fixed[22:], crc)
	dst = append(dst, fixed[:]...)
	return append(dst, h.VideoID...)
}

// WriteSegment encodes one segment to w.
func WriteSegment(w io.Writer, h SegmentHeader, payload []byte) error {
	if err := validateSegment(h, len(payload)); err != nil {
		return err
	}
	buf := appendSegmentHeader(make([]byte, 0, headerFixedLen+len(h.VideoID)),
		h, len(payload), crcUpdate(0, payload))
	if _, err := w.Write(buf); err != nil {
		return err
	}
	_, err := w.Write(payload)
	return err
}

// WriteSyntheticSegment writes a segment whose payload is
// SyntheticPayload(seed, n) into w; the bytes written are exactly
// WriteSegment(w, h, SyntheticPayload(seed, n)). It is the one producer
// of a synthetic body. The CRC precedes the payload on the wire, so the
// whole payload must be generated before the first byte goes out. It
// takes one of two shapes, chosen by where it is writing:
//
//   - the segment fits in room w lends out (AvailableBuffer, as
//     bytes.Buffer and bufio.Writer do), or in one pooled block of the
//     smallest class (obs.MinBlockLen): it is built there in one pass —
//     payload generated in its final position, CRC taken over those
//     bytes, header back-filled in front — and handed to a single
//     w.Write, which is the documented use of AvailableBuffer.
//   - otherwise (a socket, a destination without the room, a segment
//     longer than the block) the generator runs twice through that one
//     pooled block: once under the CRC, then, after the header, block
//     by block into w. Peak scratch is the block regardless of n: a
//     block of the segment's class would halve the generator's work,
//     but every pool miss — each GC, and one Put in four under -race —
//     would then mint a body-sized buffer.
//
// Neither shape allocates.
func WriteSyntheticSegment(w io.Writer, h SegmentHeader, seed uint64, n int) error {
	if n < 0 {
		return fmt.Errorf("media: negative payload length %d", n)
	}
	if err := validateSegment(h, n); err != nil {
		return err
	}
	segLen := SegmentLen(h.VideoID, n)
	if ab, ok := w.(interface{ AvailableBuffer() []byte }); ok {
		if dst := ab.AvailableBuffer(); cap(dst) >= segLen {
			return writeBuilt(w, dst[:segLen], h, seed, n)
		}
	}
	pool := obs.Blocks.For(obs.MinBlockLen)
	scratch := pool.Get()
	defer pool.Put(scratch)
	block := (*scratch)[:obs.MinBlockLen]
	if segLen <= len(block) {
		return writeBuilt(w, block[:segLen], h, seed, n)
	}

	// Pass 1: CRC of the payload, one block at a time.
	var crc uint32
	s := newSynthStream(seed)
	for rem := n; rem > 0; {
		k := min(rem, len(block))
		s.fill(block[:k])
		crc = crcUpdate(crc, block[:k])
		rem -= k
	}

	// Header (the block doubles as header scratch: 26 + ≤255 ID bytes
	// always fit).
	hdr := appendSegmentHeader(block[:0], h, n, crc)
	if _, err := w.Write(hdr); err != nil {
		return err
	}

	// Pass 2: regenerate the payload into w.
	s = newSynthStream(seed)
	for rem := n; rem > 0; {
		k := min(rem, len(block))
		s.fill(block[:k])
		if _, err := w.Write(block[:k]); err != nil {
			return err
		}
		rem -= k
	}
	return nil
}

// writeBuilt builds the segment into seg, which is exactly its length,
// and writes it to w in one call.
func writeBuilt(w io.Writer, seg []byte, h SegmentHeader, seed uint64, n int) error {
	payload := seg[len(seg)-n:]
	s := newSynthStream(seed)
	s.fill(payload)
	appendSegmentHeader(seg[:0], h, n, crcUpdate(0, payload))
	_, err := w.Write(seg)
	return err
}

// crcUpdate returns crc32.Update(crc, crc32.IEEETable, p): the one
// checksum every segment is sealed and verified with. Where vectorCRC
// holds it hands whole 256-byte blocks to crcVector.
func crcUpdate(crc uint32, p []byte) uint32 {
	if vectorCRC {
		return crcKernel(crc, p)
	}
	return crc32.Update(crc, crc32.IEEETable, p)
}

// crcKernel is crc32.Update with the first len(p)&^255 bytes folded by
// crcVector.
func crcKernel(crc uint32, p []byte) uint32 {
	if n := len(p) &^ 255; n > 0 {
		crc = crcVector(crc, &p[0], n)
		p = p[n:]
	}
	return crc32.Update(crc, crc32.IEEETable, p)
}

// unsizedFirstLen is the most payload ReadSegment allocates on a
// header's word alone, when the reader cannot say where the segment
// ends; past it the payload grows only as bytes arrive.
const unsizedFirstLen = 256 << 10

// ReadSegment decodes one segment from r, validating magic, version,
// bounds and payload CRC. The payload and the ID string are all it
// allocates that outlives the call. An *io.LimitedReader says where the
// segment ends — a response body under its Content-Length — and a header
// declaring a payload that would end anywhere else is refused before
// the payload is allocated; from any other reader the declared length is
// believed only as far as unsizedFirstLen ahead of the bytes read.
func ReadSegment(r io.Reader) (SegmentHeader, []byte, error) {
	var h SegmentHeader
	pool := obs.Blocks.For(headerFixedLen + MaxVideoIDLen)
	scratch := pool.Get()
	defer pool.Put(scratch)
	fixed := (*scratch)[:headerFixedLen]
	if _, err := io.ReadFull(r, fixed); err != nil {
		return h, nil, err
	}
	if string(fixed[:4]) != segmentMagic {
		return h, nil, ErrBadMagic
	}
	if fixed[4] != segmentVersion {
		return h, nil, fmt.Errorf("%w: %d", ErrBadVersion, fixed[4])
	}
	h.Quality = int(fixed[5])
	h.Flags = fixed[6]
	idLen := int(fixed[7])
	if idLen == 0 {
		return h, nil, fmt.Errorf("media: segment has empty video ID")
	}
	h.Tile = tiling.TileID(binary.BigEndian.Uint16(fixed[8:]))
	h.Start = time.Duration(binary.BigEndian.Uint32(fixed[10:])) * time.Millisecond
	h.Duration = time.Duration(binary.BigEndian.Uint32(fixed[14:])) * time.Millisecond
	declared := binary.BigEndian.Uint32(fixed[18:])
	if declared > MaxPayloadLen {
		return h, nil, fmt.Errorf("media: payload length %d exceeds max", declared)
	}
	payloadLen := int(declared)
	wantCRC := binary.BigEndian.Uint32(fixed[22:])
	id := (*scratch)[headerFixedLen : headerFixedLen+idLen]
	if _, err := io.ReadFull(r, id); err != nil {
		return h, nil, err
	}
	h.VideoID = string(id)
	first := min(payloadLen, unsizedFirstLen)
	if lr, ok := r.(*io.LimitedReader); ok {
		if lr.N != int64(payloadLen) {
			return h, nil, fmt.Errorf("media: header declares a %d-byte payload, %d bytes are left to the segment's end", payloadLen, lr.N)
		}
		first = payloadLen
	}
	payload := make([]byte, first)
	for read := 0; ; {
		if _, err := io.ReadFull(r, payload[read:]); err != nil {
			return h, nil, err
		}
		if read = len(payload); read == payloadLen {
			break
		}
		payload = append(payload, make([]byte, min(read, payloadLen-read))...)
	}
	if crcUpdate(0, payload) != wantCRC {
		return h, nil, ErrCorrupt
	}
	return h, payload, nil
}

// SegmentLen returns the encoded size of a segment with the given ID and
// payload length — used to size buffers and to account wire bytes.
func SegmentLen(videoID string, payloadLen int) int {
	return headerFixedLen + len(videoID) + payloadLen
}

// SyntheticPayload produces deterministic pseudo-random payload bytes
// standing in for coded video data. The same (seed, n) always yields the
// same bytes, so CRCs are stable across runs, and distinct seeds yield
// distinct streams.
func SyntheticPayload(seed uint64, n int) []byte {
	if n <= 0 {
		return []byte{}
	}
	p := make([]byte, n)
	s := newSynthStream(seed)
	s.fill(p)
	return p
}

// synthStream is the synthetic-payload generator, counter-based: word i
// of a seed's stream is mix64(base + (i+1)·synthGamma), where base is
// mix64(seed + synthGamma) — splitmix64 run from a mixed seed — written
// little-endian, the last word truncated to what is left. Its contract,
// which payload_test.go holds it to:
//
//   - deterministic: the stream is a pure function of (seed, word
//     index), so no word waits on the one before it and any offset can
//     be reached by arithmetic on x. On amd64 with AVX-512, fill hands
//     all but the last len(p)%256 bytes to fillVector, which computes
//     eight words per instruction in the lanes of a ZMM register, four
//     registers at a time; fillLoop, the Go reference, does the rest;
//   - prefix-stable: consecutive fill calls emit consecutive bytes, so
//     a payload can be produced whole or block by block. Every fill
//     length but the last must be a multiple of 8 — there is no
//     partial-word carry;
//   - seeds are decorrelated before they become a counter: 2k and 2k+1,
//     a chunk and its SVC-layer twin, and every address of one video
//     start far apart on the sequence, so no payload is a prefix or a
//     shifted copy of another.
type synthStream struct{ x uint64 }

// synthGamma is splitmix64's increment, the odd 64-bit golden ratio.
const synthGamma uint64 = 0x9e3779b97f4a7c15

// mix64 is splitmix64's output finalizer.
func mix64(z uint64) uint64 {
	z ^= z >> 30
	z *= 0xbf58476d1ce4e5b9
	z ^= z >> 27
	z *= 0x94d049bb133111eb
	return z ^ z>>31
}

func newSynthStream(seed uint64) synthStream {
	return synthStream{x: mix64(seed + synthGamma)}
}

// fill writes the next len(p) bytes of the stream into p.
func (s *synthStream) fill(p []byte) {
	if vectorFill {
		s.x = fillKernel(s.x, p)
	} else {
		s.x = fillLoop(s.x, p)
	}
}

// fillKernel is fillLoop with the first len(p)&^255 bytes written by
// fillVector.
func fillKernel(x uint64, p []byte) uint64 {
	if n := len(p) &^ 255; n > 0 {
		fillVector(x, &p[0], n)
		x += uint64(n/8) * synthGamma
		p = p[n:]
	}
	return fillLoop(x, p)
}

// fillLoop writes the len(p) bytes after counter x into p and returns
// the counter after them. It is the generator's reference, and the only
// form under -race, off amd64 and on CPUs without AVX-512.
func fillLoop(x uint64, p []byte) uint64 {
	g := synthGamma // a variable's multiples may wrap, a constant's may not
	for ; len(p) >= 32; p = p[32:] {
		a, b, c := x+g, x+2*g, x+3*g
		x += 4 * g
		binary.LittleEndian.PutUint64(p, mix64(a))
		binary.LittleEndian.PutUint64(p[8:], mix64(b))
		binary.LittleEndian.PutUint64(p[16:], mix64(c))
		binary.LittleEndian.PutUint64(p[24:], mix64(x))
	}
	for ; len(p) >= 8; p = p[8:] {
		x += g
		binary.LittleEndian.PutUint64(p, mix64(x))
	}
	if len(p) > 0 {
		x += g
		v := mix64(x)
		for j := range p {
			p[j] = byte(v >> (8 * j))
		}
	}
	return x
}
