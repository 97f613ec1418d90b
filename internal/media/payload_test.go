package media

import (
	"bytes"
	"math/rand"
	"slices"
	"testing"

	"sperke/internal/obs"
)

// The tests in this file hold synthStream to the contract stated beside
// it in container.go: deterministic, prefix-stable however fill is
// split, and seeds decorrelated before they become a counter.

// TestSyntheticPayloadSeedCollision: seeds 2k and 2k+1 must not share a
// stream. A generator that forces a bit of the raw seed (xorshift
// rejects a zero state) collapses each such pair — adjacent chunk
// indices sharing bodies; the seed goes through mix64 first.
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

// TestSynthStreamSplitStable: a payload filled in pieces — any pieces,
// as long as every one but the last is a multiple of 8 — is the payload
// filled whole, and the counter ends where the whole fill leaves it.
func TestSynthStreamSplitStable(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{0, 5, 8, 31, 32, 33, 1000, 4099, obs.MinBlockLen + 21} {
		want := SyntheticPayload(123, n)
		whole := newSynthStream(123)
		whole.fill(make([]byte, n))
		for trial := 0; trial < 20; trial++ {
			got := make([]byte, n)
			s := newSynthStream(123)
			for off := 0; off < n; {
				k := min(n-off, 8*rng.Intn(40))
				if rng.Intn(4) == 0 {
					k = n - off
				}
				s.fill(got[off : off+k])
				off += k
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("n=%d: a split fill differs from the whole", n)
			}
			if s != whole {
				t.Fatalf("n=%d: a split fill leaves the counter at %#x, the whole at %#x", n, s.x, whole.x)
			}
		}
	}
}

// TestSynthStreamsDoNotOverlap: every stream is a window on one
// sequence, word i at counter base + (i+1)·synthGamma, so what a
// counter-based generator can get wrong is two seeds starting a few
// words apart — one payload a shifted copy of the other. Seeds here are
// what an address space makes: small integers packed into bit fields,
// with and without the top bit. Each base's position on the sequence is
// base·synthGamma⁻¹ (mod 2⁶⁴); sorted, neighbours must be further apart
// than the longest payload, the wrap-around included.
func TestSynthStreamsDoNotOverlap(t *testing.T) {
	inv := synthGamma // Newton's iteration: an odd x is its own inverse mod 8, and each step doubles the bits
	for i := 0; i < 5; i++ {
		inv *= 2 - synthGamma*inv
	}
	if inv*synthGamma != 1 {
		t.Fatalf("%#x is not synthGamma's inverse", inv)
	}
	var pos []uint64
	for a := uint64(0); a < 8; a++ {
		for b := uint64(0); b < 32; b++ {
			for c := uint64(0); c < 160; c++ {
				seed := a<<40 ^ b<<20 ^ c
				pos = append(pos, newSynthStream(seed).x*inv, newSynthStream(seed^1<<63).x*inv)
			}
		}
	}
	slices.Sort(pos)
	const maxWords = MaxPayloadLen/8 + 1
	for i, p := range pos {
		next := pos[(i+1)%len(pos)] // the last one's neighbour is the first, 2⁶⁴ on
		if next-p <= maxWords {
			t.Fatalf("two of %d seeds start %d words apart on the sequence; a payload may run %d", len(pos), next-p, maxWords)
		}
	}
}
