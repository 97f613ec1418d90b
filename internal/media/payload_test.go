package media

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
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

// TestSynthStreamKnownAnswers pins the generator's bytes and its final
// counter for a few (seed, n): every other equality in the package
// holds one form of the generator to another, so only this one would
// see all of them change together. Lengths straddle a word, a 256-byte
// block and the smallest pool block. Seed 0's counter after no bytes is
// splitmix64's first output from state 0, 0xe220a8397b1dcdaf, the
// published reference value.
func TestSynthStreamKnownAnswers(t *testing.T) {
	for _, c := range []struct {
		seed uint64
		n    int
		sha  string
		x    uint64
	}{
		{0, 0, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", 0xe220a8397b1dcdaf},
		{1, 1, "9652595f37edd08c51dfa26567e6cd76e6fa2709c3e578478ca398d316837a7a", 0x2f41a7a6084cd8d6},
		{2, 7, "e01fc8853ca8d7a1b580661f6a5d73c072de26c0c4232cb4b32b0ddc342a6be2", 0x358faf979be1d2e3},
		{3, 8, "1e7168b07330cbbcb34a90c5d16abf086b8ba03bd1a7fad9d0c3cdaa61f041a0", 0xbb428e9e5a4c0c02},
		{0x5eed, 255, "4e552595deca818c57cb7860453f3a190f9e46f9767000c94b02dea49bc1a658", 0xd0e134cced402c54},
		{1 << 63, 256, "f3cbe8b34f2e02843c9f3e20eea2e7f94c7b7fd5c759a1ab237a69ac5e8bd9b2", 0x0f0df7d1fbf9767b},
		{77, 257, "09ba5708a88d63667c9a63ecdf8e816fb74820dec361959d82e15a16f9a915f8", 0xc77f7cc9e4b9ef36},
		{123, 4120, "10749a3041ade5afa6848c7e75f0049ef4a75c6cc3a0623ec5be063ad47c3ef3", 0xfe767bff75b5df6a},
		{^uint64(0), obs.MinBlockLen + 21, "fbba832b8edf95d077cdfd523d80ac4b5a378db27d0a2e31258688b8ed617465", 0x371b76984105f05f},
		{5, 140000, "3bab64ef4fcfbbf42fe84f7d5e5925222c991cf10adb8f6ffe42a3553896911d", 0xfb483f862b43eee6},
	} {
		if sum := sha256.Sum256(SyntheticPayload(c.seed, c.n)); hex.EncodeToString(sum[:]) != c.sha {
			t.Errorf("SyntheticPayload(%#x, %d): sha256 %x, want %s", c.seed, c.n, sum, c.sha)
		}
		s := newSynthStream(c.seed)
		s.fill(make([]byte, c.n))
		if s.x != c.x {
			t.Errorf("seed %#x, %d bytes: counter ends at %#x, want %#x", c.seed, c.n, s.x, c.x)
		}
	}
}
