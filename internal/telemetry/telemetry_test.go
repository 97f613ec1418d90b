package telemetry

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"math/rand"
	"strings"
	"testing"
	"time"

	"sperke/internal/sphere"
	"sperke/internal/trace"
)

func sampleRecord(t *testing.T, n int) *Record {
	t.Helper()
	rng := rand.New(rand.NewSource(5))
	att := trace.GenerateAttention(rand.New(rand.NewSource(6)), time.Minute)
	h := trace.Generate(rng, trace.UserProfile{ID: "u", SpeedScale: 1}, att, time.Minute)
	rec := FromHeadTrace("vid-1", "user-1", trace.Context{
		Pose: trace.Lying, Mode: trace.Headset, Mobile: true, Indoors: true, Engaged: 0.8,
	}, h)
	rec.Rating = 4
	if n > 0 && n < len(rec.Samples) {
		rec.Samples = rec.Samples[:n]
	}
	return rec
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	rec := sampleRecord(t, 500)
	var buf bytes.Buffer
	if err := Encode(&buf, rec); err != nil {
		t.Fatal(err)
	}
	if buf.Len() != encodedSize(rec.VideoID, rec.UserID, len(rec.Samples)) {
		t.Fatalf("encoded %d bytes, EncodedSize says %d", buf.Len(),
			encodedSize(rec.VideoID, rec.UserID, len(rec.Samples)))
	}
	got, err := Decode(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.VideoID != rec.VideoID || got.UserID != rec.UserID || got.Rating != 4 {
		t.Fatalf("identity fields lost: %+v", got)
	}
	if got.Context.Pose != trace.Lying || got.Context.Mode != trace.Headset ||
		!got.Context.Mobile || !got.Context.Indoors {
		t.Fatalf("context lost: %+v", got.Context)
	}
	if got.Context.Engaged < 0.79 || got.Context.Engaged > 0.81 {
		t.Fatalf("engagement %v, want ≈0.8", got.Context.Engaged)
	}
	if len(got.Samples) != len(rec.Samples) {
		t.Fatalf("samples %d, want %d", len(got.Samples), len(rec.Samples))
	}
	// Quantization error bounded by the 0.02° quantum.
	for i := range got.Samples {
		if d := sphere.AngularDistance(got.Samples[i].View, rec.Samples[i].View); d > 0.05 {
			t.Fatalf("sample %d quantization error %v°", i, d)
		}
		if got.Samples[i].At != rec.Samples[i].At {
			t.Fatalf("sample %d timestamp %v, want %v", i, got.Samples[i].At, rec.Samples[i].At)
		}
	}
}

func TestEncodeValidation(t *testing.T) {
	var buf bytes.Buffer
	if err := Encode(&buf, &Record{UserID: "u"}); err == nil {
		t.Fatal("empty video ID accepted")
	}
	if err := Encode(&buf, &Record{VideoID: "v"}); err == nil {
		t.Fatal("empty user ID accepted")
	}
	long := strings.Repeat("x", 300)
	if err := Encode(&buf, &Record{VideoID: long, UserID: "u"}); err == nil {
		t.Fatal("oversized video ID accepted")
	}
	big := &Record{VideoID: "v", UserID: "u", Samples: make([]trace.Sample, maxSamples+1)}
	if err := Encode(&buf, big); err == nil {
		t.Fatal("oversized sample count accepted")
	}
}

func TestDecodeRejectsGarbage(t *testing.T) {
	if _, err := Decode(bytes.NewReader([]byte("not telemetry data..."))); !errors.Is(err, ErrBadMagic) {
		t.Fatalf("err = %v, want ErrBadMagic", err)
	}
	rec := sampleRecord(t, 10)
	var buf bytes.Buffer
	Encode(&buf, rec)
	data := buf.Bytes()
	data[4] = 99
	if _, err := Decode(bytes.NewReader(data)); !errors.Is(err, ErrBadVersion) {
		t.Fatalf("err = %v, want ErrBadVersion", err)
	}
	// Truncations.
	Encode(&buf, rec)
	full := buf.Bytes()
	for _, cut := range []int{3, headerFixed - 1, headerFixed + 2, len(full) - 3} {
		if _, err := Decode(bytes.NewReader(full[:cut])); err == nil {
			t.Fatalf("truncation at %d accepted", cut)
		}
	}
}

// rawRecord is a wire record of n zero samples intervalMs apart, built
// byte by byte so that Decode's own bounds are what a test meets.
func rawRecord(intervalMs uint16, n int) []byte {
	b := make([]byte, headerFixed+2+6*n)
	copy(b, recordMagic)
	b[4] = recordVersion
	b[5], b[6] = 1, 1
	binary.BigEndian.PutUint16(b[10:], intervalMs)
	binary.BigEndian.PutUint32(b[12:], uint32(n))
	b[16], b[17] = 'v', 'u'
	return b
}

// TestDecodeRejectsRecordOverAnHour: a record covers at most an hour,
// first sample to last, the bound maxSamples states at 50 Hz. Samples a
// minute apart: 61 span exactly an hour and are read, 62 span 61 minutes
// and are refused. Encode refuses what Decode would.
func TestDecodeRejectsRecordOverAnHour(t *testing.T) {
	if _, err := Decode(bytes.NewReader(rawRecord(60000, 61))); err != nil {
		t.Fatalf("an hour-long record refused: %v", err)
	}
	if rec, err := Decode(bytes.NewReader(rawRecord(60000, 62))); err == nil {
		t.Fatalf("a record spanning %v accepted", rec.Samples[61].At)
	}
	long := &Record{VideoID: "v", UserID: "u", SampleInterval: time.Minute, Samples: make([]trace.Sample, 62)}
	if err := Encode(io.Discard, long); err == nil {
		t.Fatal("Encode wrote a record spanning 61 minutes")
	}
}

func TestBitrateUnderPaperBudget(t *testing.T) {
	// The §3.2 claim: 50 Hz head movement telemetry < 5 Kbps.
	bps := BitrateBPS(time.Second / 50)
	if bps >= 5000 {
		t.Fatalf("50 Hz telemetry costs %.0f bps, paper budget is 5 Kbps", bps)
	}
	if bps <= 0 {
		t.Fatal("zero bitrate")
	}
	// A real encoded minute matches the analytic rate (header amortized).
	rec := sampleRecord(t, 0)
	var buf bytes.Buffer
	if err := Encode(&buf, rec); err != nil {
		t.Fatal(err)
	}
	seconds := rec.Samples[len(rec.Samples)-1].At.Seconds()
	measured := float64(buf.Len()) * 8 / seconds
	if measured >= 5000 {
		t.Fatalf("measured %.0f bps for a %.0fs session", measured, seconds)
	}
}

func TestHeadTraceReconstruction(t *testing.T) {
	rec := sampleRecord(t, 100)
	h := rec.headTrace()
	if len(h.Samples) != 100 {
		t.Fatalf("reconstructed %d samples", len(h.Samples))
	}
	if h.Duration() != rec.Samples[99].At {
		t.Fatalf("duration %v", h.Duration())
	}
}
