// Package telemetry implements the §3.2 data-collection pipeline: the
// player app records head-movement readings at 50 Hz together with
// lightweight context, uploads them in a compact binary format, and a
// collector service aggregates them into the crowd heatmaps HMP and
// rate adaptation consume.
//
// The paper's scaling claim — "uncompressed head movement data at 50 Hz
// is less than 5 Kbps" — is a format property here: each sample is
// yaw/pitch/roll quantized to 0.02° in three int16s (6 bytes), so a
// 50 Hz stream costs 2.4 Kbps before any compression. Tests verify the
// budget.
package telemetry

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"time"

	"sperke/internal/sphere"
	"sperke/internal/trace"
)

// Record is one viewing session's telemetry: who watched what, in what
// context, and the 50 Hz head trace.
type Record struct {
	VideoID string
	UserID  string
	Context trace.Context
	// Rating is the §3.2 "user's rating of the video" signal, 0–5.
	Rating uint8
	// SampleInterval is the sensor period; the app records at 50 Hz
	// (20 ms).
	SampleInterval time.Duration
	Samples        []trace.Sample
}

// Wire format, all integers big-endian:
//
//	offset size field
//	0      4    magic "SPTL"
//	4      1    format version (1)
//	5      1    video-ID length v
//	6      1    user-ID length u
//	7      1    context byte (pose<<0 | mode<<2 | mobile<<3 | indoors<<4)
//	8      1    engagement, quantized ×100
//	9      1    rating 0..5
//	10     2    sample interval, milliseconds
//	12     4    sample count n
//	16     v    video ID
//	16+v   u    user ID
//	...    6n   samples: int16 yaw, pitch, roll ×50 (0.02° quanta)
const (
	recordMagic   = "SPTL"
	recordVersion = 1
	headerFixed   = 16
	// quantum is the angle resolution: 0.02°, far below sensor noise.
	quantum = 0.02
	// maxSpan bounds the time one record covers, first sample to last,
	// and maxSamples its sample count: an hour at 50 Hz. Both bound the
	// heatmap a collector builds from what it accepts.
	maxSpan    = time.Hour
	maxSamples = 50 * 3600
)

// Errors.
var (
	ErrBadMagic   = errors.New("telemetry: bad magic")
	ErrBadVersion = errors.New("telemetry: unsupported version")
)

func quantize(deg float64) int16 {
	q := math.Round(deg / quantum)
	if q > math.MaxInt16 {
		q = math.MaxInt16
	}
	if q < math.MinInt16 {
		q = math.MinInt16
	}
	return int16(q)
}

func dequantize(q int16) float64 { return float64(q) * quantum }

// encodedSize returns the wire size of a record with the given ID
// lengths and sample count.
func encodedSize(videoID, userID string, samples int) int {
	return headerFixed + len(videoID) + len(userID) + 6*samples
}

// Encode writes the record to w.
func Encode(w io.Writer, r *Record) error {
	if len(r.VideoID) == 0 || len(r.VideoID) > 255 {
		return fmt.Errorf("telemetry: video ID length %d", len(r.VideoID))
	}
	if len(r.UserID) == 0 || len(r.UserID) > 255 {
		return fmt.Errorf("telemetry: user ID length %d", len(r.UserID))
	}
	if len(r.Samples) > maxSamples {
		return fmt.Errorf("telemetry: %d samples exceed max %d", len(r.Samples), maxSamples)
	}
	interval := r.SampleInterval
	if interval <= 0 {
		interval = time.Second / trace.SampleRate
	}
	if err := checkSpan(len(r.Samples), interval); err != nil {
		return err
	}
	buf := make([]byte, encodedSize(r.VideoID, r.UserID, len(r.Samples)))
	copy(buf, recordMagic)
	buf[4] = recordVersion
	buf[5] = uint8(len(r.VideoID))
	buf[6] = uint8(len(r.UserID))
	buf[7] = contextByte(r.Context)
	buf[8] = uint8(clamp01(r.Context.Engaged) * 100)
	buf[9] = r.Rating
	binary.BigEndian.PutUint16(buf[10:], uint16(interval/time.Millisecond))
	binary.BigEndian.PutUint32(buf[12:], uint32(len(r.Samples)))
	off := headerFixed
	off += copy(buf[off:], r.VideoID)
	off += copy(buf[off:], r.UserID)
	for _, s := range r.Samples {
		binary.BigEndian.PutUint16(buf[off:], uint16(quantize(s.View.Yaw)))
		binary.BigEndian.PutUint16(buf[off+2:], uint16(quantize(s.View.Pitch)))
		binary.BigEndian.PutUint16(buf[off+4:], uint16(quantize(s.View.Roll)))
		off += 6
	}
	_, err := w.Write(buf)
	return err
}

func clamp01(x float64) float64 {
	if x < 0 {
		return 0
	}
	if x > 1 {
		return 1
	}
	return x
}

func contextByte(c trace.Context) uint8 {
	b := uint8(c.Pose) & 0x3
	if c.Mode == trace.Headset {
		b |= 1 << 2
	}
	if c.Mobile {
		b |= 1 << 3
	}
	if c.Indoors {
		b |= 1 << 4
	}
	return b
}

func contextFromByte(b uint8, engaged float64) trace.Context {
	c := trace.Context{
		Pose:    trace.Pose(b & 0x3),
		Mobile:  b&(1<<3) != 0,
		Indoors: b&(1<<4) != 0,
		Engaged: engaged,
	}
	if b&(1<<2) != 0 {
		c.Mode = trace.Headset
	}
	return c
}

// Decode reads one record from r.
func Decode(r io.Reader) (*Record, error) {
	fixed := make([]byte, headerFixed)
	if _, err := io.ReadFull(r, fixed); err != nil {
		return nil, err
	}
	if string(fixed[:4]) != recordMagic {
		return nil, ErrBadMagic
	}
	if fixed[4] != recordVersion {
		return nil, fmt.Errorf("%w: %d", ErrBadVersion, fixed[4])
	}
	vLen, uLen := int(fixed[5]), int(fixed[6])
	if vLen == 0 || uLen == 0 {
		return nil, fmt.Errorf("telemetry: empty ID")
	}
	n := binary.BigEndian.Uint32(fixed[12:])
	if n > maxSamples {
		return nil, fmt.Errorf("telemetry: sample count %d exceeds max", n)
	}
	rec := &Record{
		Rating:         fixed[9],
		SampleInterval: time.Duration(binary.BigEndian.Uint16(fixed[10:])) * time.Millisecond,
		Context:        contextFromByte(fixed[7], float64(fixed[8])/100),
	}
	interval := rec.SampleInterval
	if interval <= 0 {
		interval = time.Second / trace.SampleRate
	}
	if err := checkSpan(int(n), interval); err != nil {
		return nil, err
	}
	ids := make([]byte, vLen+uLen)
	if _, err := io.ReadFull(r, ids); err != nil {
		return nil, err
	}
	rec.VideoID = string(ids[:vLen])
	rec.UserID = string(ids[vLen:])
	body := make([]byte, 6*int(n))
	if _, err := io.ReadFull(r, body); err != nil {
		return nil, err
	}
	rec.Samples = make([]trace.Sample, n)
	for i := 0; i < int(n); i++ {
		off := 6 * i
		rec.Samples[i] = trace.Sample{
			At: time.Duration(i) * interval,
			View: sphere.Orientation{
				Yaw:   dequantize(int16(binary.BigEndian.Uint16(body[off:]))),
				Pitch: dequantize(int16(binary.BigEndian.Uint16(body[off+2:]))),
				Roll:  dequantize(int16(binary.BigEndian.Uint16(body[off+4:]))),
			},
		}
	}
	return rec, nil
}

// checkSpan refuses a record of n samples, interval apart, that covers
// more than maxSpan.
func checkSpan(n int, interval time.Duration) error {
	if n > 1 && time.Duration(n-1) > maxSpan/interval {
		return fmt.Errorf("telemetry: %d samples %v apart span more than %v", n, interval, maxSpan)
	}
	return nil
}

// BitrateBPS returns the steady-state upload rate of a session encoded
// in this format, in bits per second — the figure behind the §3.2
// "less than 5 Kbps" scaling claim.
func BitrateBPS(interval time.Duration) float64 {
	if interval <= 0 {
		interval = time.Second / trace.SampleRate
	}
	perSecond := float64(time.Second) / float64(interval)
	return perSecond * 6 * 8
}

// FromHeadTrace packages a generated head trace as a telemetry record.
func FromHeadTrace(videoID, userID string, ctx trace.Context, h *trace.HeadTrace) *Record {
	rec := &Record{
		VideoID:        videoID,
		UserID:         userID,
		Context:        ctx,
		SampleInterval: time.Second / trace.SampleRate,
		Samples:        h.Samples,
	}
	if len(h.Samples) > 1 {
		rec.SampleInterval = h.Samples[1].At - h.Samples[0].At
	}
	return rec
}

// headTrace reconstructs the head trace carried by a record.
func (r *Record) headTrace() *trace.HeadTrace {
	return &trace.HeadTrace{Samples: r.Samples}
}
