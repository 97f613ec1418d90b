package media

import (
	"bytes"
	"testing"
)

// TestSyntheticPayloadSeedCollision is the PR 5 regression test for
// the seed-mixing bug: the old generator forced the low bit of the raw
// seed (xorshift rejects zero state), so seeds 2k and 2k+1 produced
// byte-identical payloads — adjacent chunk indices shared bodies. The
// splitmix64 finalizer now decorrelates them before the |1.
func TestSyntheticPayloadSeedCollision(t *testing.T) {
	for _, k := range []uint64{0, 1, 5, 1 << 20, 0x5eed, 1<<40 + 3} {
		a := SyntheticPayload(2*k, 256)
		b := SyntheticPayload(2*k+1, 256)
		if bytes.Equal(a, b) {
			t.Errorf("seeds %d and %d generate identical payloads", 2*k, 2*k+1)
		}
	}
}

func TestSyntheticPayloadStillDeterministic(t *testing.T) {
	if !bytes.Equal(SyntheticPayload(99, 500), SyntheticPayload(99, 500)) {
		t.Fatal("same seed must give same payload")
	}
	long := SyntheticPayload(99, 500)
	short := SyntheticPayload(99, 100)
	if !bytes.Equal(long[:100], short) {
		t.Fatal("payload must be a prefix-stable stream per seed")
	}
}
