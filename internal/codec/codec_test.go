package codec

import (
	"testing"
	"time"

	"sperke/internal/sim"
)

func TestDecodeTimeLinear(t *testing.T) {
	d := DecoderSpec{PixelRate: 1e6}
	if got := d.DecodeTime(1e6); got != time.Second {
		t.Fatalf("DecodeTime(1e6 px @1e6 px/s) = %v, want 1s", got)
	}
	if got := d.DecodeTime(0); got != 0 {
		t.Fatalf("DecodeTime(0) = %v", got)
	}
	if got := d.DecodeTime(-5); got != 0 {
		t.Fatalf("DecodeTime(-5) = %v", got)
	}
}

func TestSyncDecodeAddsOverhead(t *testing.T) {
	d := DecoderSpec{PixelRate: 1e6, SubmitOverhead: 10 * time.Millisecond}
	if got := d.SyncDecodeTime(1e6); got != time.Second+10*time.Millisecond {
		t.Fatalf("SyncDecodeTime = %v", got)
	}
}

func TestRenderTime(t *testing.T) {
	p := DeviceProfile{RenderPixelRate: 2e6, RenderOverhead: 5 * time.Millisecond}
	if got := p.RenderTime(1e6); got != 505*time.Millisecond {
		t.Fatalf("RenderTime = %v", got)
	}
	zero := DeviceProfile{RenderOverhead: time.Millisecond}
	if got := zero.RenderTime(1e6); got != time.Millisecond {
		t.Fatalf("RenderTime with zero rate = %v", got)
	}
}

func TestPoolParallelism(t *testing.T) {
	clock := sim.NewClock(1)
	p := NewPool(clock, DecoderSpec{PixelRate: 1e6}, 4)
	var finishes []time.Duration
	for i := 0; i < 4; i++ {
		p.Submit(1e6, func() { finishes = append(finishes, clock.Now()) })
	}
	clock.Run()
	// Four jobs across four decoders all finish at 1s.
	for _, f := range finishes {
		if f != time.Second {
			t.Fatalf("parallel job finished at %v, want 1s", f)
		}
	}
	if len(finishes) != 4 {
		t.Fatalf("%d jobs completed, want 4", len(finishes))
	}
}

func TestPoolQueuesBeyondCapacity(t *testing.T) {
	clock := sim.NewClock(1)
	p := NewPool(clock, DecoderSpec{PixelRate: 1e6}, 2)
	var last time.Duration
	for i := 0; i < 4; i++ {
		p.Submit(1e6, func() { last = clock.Now() })
	}
	clock.Run()
	// 4 jobs on 2 decoders: two waves → 2s.
	if last != 2*time.Second {
		t.Fatalf("last finish = %v, want 2s", last)
	}
}

func TestPoolDeterministicAssignment(t *testing.T) {
	run := func() []time.Duration {
		clock := sim.NewClock(1)
		p := NewPool(clock, DecoderSpec{PixelRate: 1e6}, 3)
		var out []time.Duration
		for i := 0; i < 10; i++ {
			p.Submit(int64(1e5*(i+1)), func() { out = append(out, clock.Now()) })
		}
		clock.Run()
		return out
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("pool scheduling nondeterministic")
		}
	}
}

func TestPoolInvalidSizePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("zero-size pool accepted")
		}
	}()
	NewPool(sim.NewClock(1), DecoderSpec{}, 0)
}

func TestDeviceProfilesSane(t *testing.T) {
	for _, d := range []DeviceProfile{SGS5, SGS7} {
		if d.HWDecoders <= 0 || d.Decoder.PixelRate <= 0 || d.MaxDisplayFPS <= 0 {
			t.Fatalf("profile %s has zero fields", d.Name)
		}
	}
	if SGS7.Decoder.PixelRate <= SGS5.Decoder.PixelRate {
		t.Fatal("SGS7 decoder not faster than SGS5")
	}
	if SGS7.HWDecoders != 16 || SGS5.HWDecoders != 8 {
		t.Fatal("decoder counts disagree with the paper (§3.5)")
	}
}

func TestTranscoderTime(t *testing.T) {
	tr := Transcoder{Latency: 10 * time.Millisecond, ByteRate: 1 << 20}
	if got := tr.TranscodeTime(1 << 20); got != 1010*time.Millisecond {
		t.Fatalf("TranscodeTime = %v", got)
	}
	if got := tr.TranscodeTime(0); got != 10*time.Millisecond {
		t.Fatalf("TranscodeTime(0) = %v", got)
	}
	if got := DefaultCloudlet.TranscodeTime(500 << 10); got > 100*time.Millisecond {
		t.Fatalf("cloudlet transcode of a chunk took %v — too slow to be useful", got)
	}
}
