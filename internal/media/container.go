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

// Segment flags.
const (
	// FlagSVCLayer marks the payload as one SVC layer rather than a full
	// single-layer chunk.
	FlagSVCLayer = 1 << 0
	// FlagLive marks a segment produced by a live broadcast.
	FlagLive = 1 << 1
)

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
	// MaxSegmentTime is the largest Start or Duration the wire format
	// can carry: both travel as uint32 milliseconds, so anything past
	// ~49.7 days would silently wrap and fail to round-trip through
	// ReadSegment. validateSegment rejects it instead.
	MaxSegmentTime = time.Duration(math.MaxUint32) * time.Millisecond
	// SyntheticBlockLen is the fixed scratch size of the writer-first
	// synthesis path: WriteSyntheticSegment never holds more than one
	// such block regardless of payload length. A multiple of 8 so block
	// boundaries stay aligned with the generator's 8-byte words.
	SyntheticBlockLen = 32 << 10
)

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
	if h.Start < 0 || h.Start > MaxSegmentTime {
		return fmt.Errorf("media: start %v outside [0, %v]", h.Start, MaxSegmentTime)
	}
	if h.Duration < 0 || h.Duration > MaxSegmentTime {
		return fmt.Errorf("media: duration %v outside [0, %v]", h.Duration, MaxSegmentTime)
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
		h, len(payload), crc32.ChecksumIEEE(payload))
	if _, err := w.Write(buf); err != nil {
		return err
	}
	_, err := w.Write(payload)
	return err
}

// blockPool recycles the fixed-size scratch blocks of the writer-first
// synthesis path. Blocks are minted and kept at exactly
// SyntheticBlockLen, so the pool's resident memory is bounded by the
// number of concurrent writers, never by body sizes.
var blockPool = obs.NewSizedBufferPool(nil, "media.block", SyntheticBlockLen, SyntheticBlockLen)

// WriteSyntheticSegment streams a segment whose payload is
// SyntheticPayload(seed, n) into w without ever materializing the
// payload: the deterministic generator is run once through a CRC-32
// hasher over a reused SyntheticBlockLen scratch block (the CRC of a
// synthetic payload is computable before emission), then the header is
// emitted and the payload regenerated block by block straight into w.
// Peak scratch is the fixed block size regardless of n, and the bytes
// written are exactly WriteSegment(w, h, SyntheticPayload(seed, n)).
func WriteSyntheticSegment(w io.Writer, h SegmentHeader, seed uint64, n int) error {
	if n < 0 {
		return fmt.Errorf("media: negative payload length %d", n)
	}
	if err := validateSegment(h, n); err != nil {
		return err
	}
	scratch := blockPool.Get()
	defer blockPool.Put(scratch)
	block := (*scratch)[:SyntheticBlockLen]

	// Pass 1: CRC of the payload, one block at a time.
	var crc uint32
	s := newSynthStream(seed)
	for rem := n; rem > 0; {
		k := rem
		if k > len(block) {
			k = len(block)
		}
		s.fill(block[:k])
		crc = crc32.Update(crc, crc32.IEEETable, block[:k])
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
		k := rem
		if k > len(block) {
			k = len(block)
		}
		s.fill(block[:k])
		if _, err := w.Write(block[:k]); err != nil {
			return err
		}
		rem -= k
	}
	return nil
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
	scratch := blockPool.Get()
	defer blockPool.Put(scratch)
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
	if crc32.ChecksumIEEE(payload) != wantCRC {
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

// synthStream is the resumable form of the synthetic-payload
// generator: consecutive fill calls emit consecutive bytes of the same
// prefix-stable stream, which is what lets WriteSyntheticSegment
// regenerate a payload block by block instead of holding it whole.
// Callers must keep every fill length a multiple of 8 except the last
// (the word generator has no partial-word carry).
type synthStream struct{ x uint64 }

// newSynthStream seeds the stream. The seed is mixed through a
// splitmix64 finalizer before forcing it odd: seeding xorshift with a
// raw `seed | 1` collapses seeds 2k and 2k+1 onto the same stream, so
// distinct chunks could share payload bytes and skew cache-dedup and
// CRC-based comparisons.
func newSynthStream(seed uint64) synthStream {
	x := seed + 0x9e3779b97f4a7c15
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	x |= 1 // xorshift state must stay non-zero
	return synthStream{x: x}
}

// fill writes the next len(p) bytes of the stream into p.
func (s *synthStream) fill(p []byte) {
	// xorshift64* — tiny, fast, deterministic.
	x := s.x
	n := len(p)
	for i := 0; i < n; i += 8 {
		x ^= x >> 12
		x ^= x << 25
		x ^= x >> 27
		v := x * 2685821657736338717
		if i+8 <= n {
			binary.LittleEndian.PutUint64(p[i:], v)
		} else {
			for j := 0; i+j < n; j++ {
				p[i+j] = byte(v >> (8 * j))
			}
		}
	}
	s.x = x
}
