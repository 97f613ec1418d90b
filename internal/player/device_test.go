package player

import (
	"testing"
	"time"
)

func TestDecodeTimeLinear(t *testing.T) {
	d := decoderSpec{PixelRate: 1e6}
	if got := d.decodeTime(1e6); got != time.Second {
		t.Fatalf("decodeTime(1e6 px @1e6 px/s) = %v, want 1s", got)
	}
	if got := d.decodeTime(0); got != 0 {
		t.Fatalf("decodeTime(0) = %v", got)
	}
	if got := d.decodeTime(-5); got != 0 {
		t.Fatalf("decodeTime(-5) = %v", got)
	}
}

func TestSyncDecodeAddsOverhead(t *testing.T) {
	d := decoderSpec{PixelRate: 1e6, SubmitOverhead: 10 * time.Millisecond}
	if got := d.syncDecodeTime(1e6); got != time.Second+10*time.Millisecond {
		t.Fatalf("syncDecodeTime = %v", got)
	}
}

func TestRenderTime(t *testing.T) {
	p := DeviceProfile{RenderPixelRate: 2e6, RenderOverhead: 5 * time.Millisecond}
	if got := p.renderTime(1e6); got != 505*time.Millisecond {
		t.Fatalf("renderTime = %v", got)
	}
	zero := DeviceProfile{RenderOverhead: time.Millisecond}
	if got := zero.renderTime(1e6); got != time.Millisecond {
		t.Fatalf("renderTime with zero rate = %v", got)
	}
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
