package cluster

import (
	"cmp"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"sperke/internal/serve"
)

func testKeys(n int) []serve.ChunkKey {
	keys := make([]serve.ChunkKey, n)
	for i := range keys {
		keys[i] = serve.ChunkKey{
			Video:   "vid",
			Quality: i % 3,
			Tile:    i % 16,
			Index:   i / 3,
			Layer:   i%2 == 1,
		}
	}
	return keys
}

// TestPlacementPinned holds rendezvous placement to literal values:
// placement is promised stable across processes and Go versions, so a
// changed fold, separator or key field must fail here rather than
// silently move every key. serve's TestShardHashPinned pins the same
// keys' shard hashes.
func TestPlacementPinned(t *testing.T) {
	nodes := []string{"edge-0", "edge-1", "edge-2", "", "origin.example:8360"}
	for _, tc := range []struct {
		key    serve.ChunkKey
		scores [5]uint64 // one per node, in nodes order
		rank   []string
	}{
		{serve.ChunkKey{},
			[5]uint64{0x5619fc881f4188e6, 0xe402b46fa3fb43b1, 0xa382b82c0f9bec7c, 0x5b70e0cddf1867aa, 0x56e8315b2e71f80f},
			[]string{"edge-1", "edge-2", "", "origin.example:8360", "edge-0"}},
		{serve.ChunkKey{Video: "demo", Quality: 2, Tile: 5, Index: 17},
			[5]uint64{0x495e3415fda5b649, 0x8bf77ec930ab1ed2, 0xf61e27a56c7f63a7, 0x28beb786194c59c5, 0x66ffff7ae60bd050},
			[]string{"edge-2", "edge-1", "origin.example:8360", "edge-0", ""}},
		{serve.ChunkKey{Video: "demo", Quality: 2, Tile: 5, Index: 17, Layer: true},
			[5]uint64{0x495e3315fda5b496, 0x8bf77fc930ab2085, 0xf61e26a56c7f61f4, 0x28beb686194c5812, 0x6700007ae60bd203},
			[]string{"edge-2", "edge-1", "origin.example:8360", "edge-0", ""}},
		{serve.ChunkKey{Video: "a b/%2F?é", Quality: 1, Tile: 3, Index: 4, Layer: true},
			[5]uint64{0xc182aef25fd8506d, 0x2ff3c04868fe4d6a, 0xd72ca1446729b2b7, 0x5402a2f9c30c7319, 0x2600655681e4fb94},
			[]string{"edge-2", "edge-0", "", "edge-1", "origin.example:8360"}},
		{serve.ChunkKey{Video: "neg", Quality: -1, Tile: -7, Index: math.MinInt32},
			[5]uint64{0x56cff4b669144fd2, 0xf7876a95721bfb1b, 0xc621d05c99df77b0, 0x915b730e1f47760e, 0xa5eb2225ba3a1779},
			[]string{"edge-1", "edge-2", "origin.example:8360", "", "edge-0"}},
		{serve.ChunkKey{Video: "big", Quality: math.MaxInt32, Tile: 1 << 20, Index: math.MaxInt32},
			[5]uint64{0x981a8e7eec4e38e4, 0x76ea3e206dda5e81, 0x25777b206fbac5be, 0x7ee110546c5d19c8, 0xd7b78764470b79e3},
			[]string{"origin.example:8360", "edge-0", "", "edge-1", "edge-2"}},
	} {
		for i, n := range nodes {
			if got := rendezvousScore(n, tc.key); got != tc.scores[i] {
				t.Errorf("rendezvousScore(%q, %v) = %#x, want %#x", n, tc.key, got, tc.scores[i])
			}
		}
		if got := Rank(tc.key, nodes); !slices.Equal(got, tc.rank) {
			t.Errorf("Rank(%v) = %q, want %q", tc.key, got, tc.rank)
		}
	}
}

func TestRankIsDeterministicAndOrderIndependent(t *testing.T) {
	nodes := []string{"edge-0", "edge-1", "edge-2", "edge-3"}
	shuffled := []string{"edge-3", "edge-1", "edge-0", "edge-2"}
	for _, key := range testKeys(50) {
		a := Rank(key, nodes)
		b := Rank(key, shuffled)
		c := Rank(key, nodes)
		if len(a) != len(nodes) {
			t.Fatalf("Rank returned %d nodes, want %d", len(a), len(nodes))
		}
		for i := range a {
			if a[i] != b[i] || a[i] != c[i] {
				t.Fatalf("key %v: rankings differ: %v vs %v vs %v", key, a, b, c)
			}
		}
	}
}

func TestRankMinimalMovementOnMemberLoss(t *testing.T) {
	nodes := []string{"edge-0", "edge-1", "edge-2", "edge-3", "edge-4"}
	const dead = "edge-2"
	survivors := make([]string, 0, len(nodes)-1)
	for _, id := range nodes {
		if id != dead {
			survivors = append(survivors, id)
		}
	}
	moved := 0
	for _, key := range testKeys(500) {
		before := Rank(key, nodes)
		after := Rank(key, survivors)
		if before[0] == dead {
			// The dead node's keys — and only those — promote to their
			// next-ranked survivor.
			moved++
			if after[0] != before[1] {
				t.Fatalf("key %v: moved to %s, want next-ranked %s", key, after[0], before[1])
			}
			continue
		}
		if after[0] != before[0] {
			t.Fatalf("key %v moved from %s to %s though %s was not its owner",
				key, before[0], after[0], dead)
		}
	}
	if moved == 0 {
		t.Fatal("no key was owned by the removed node; the test asserted nothing")
	}
}

func TestRankSpreadsKeys(t *testing.T) {
	nodes := []string{"edge-0", "edge-1", "edge-2"}
	counts := map[string]int{}
	keys := testKeys(900)
	for _, key := range keys {
		counts[Rank(key, nodes)[0]]++
	}
	for _, id := range nodes {
		// Perfect balance is 300 each; demand each node owns at least a
		// third of its fair share so a broken hash fold shows up.
		if counts[id] < len(keys)/9 {
			t.Fatalf("node %s owns %d of %d keys; distribution collapsed: %v",
				id, counts[id], len(keys), counts)
		}
	}
}

func TestRendezvousScoreSeparatesNodeAndKey(t *testing.T) {
	// The separator byte keeps ("ab", video "c") and ("a", video "bc")
	// from folding identically.
	k1 := serve.ChunkKey{Video: "c"}
	k2 := serve.ChunkKey{Video: "bc"}
	if rendezvousScore("ab", k1) == rendezvousScore("a", k2) {
		t.Fatal("node/key boundary collision")
	}
	if rendezvousScore("edge-0", k1) == rendezvousScore("edge-1", k1) {
		t.Fatal("distinct nodes scored identically for one key")
	}
}

// TestRankPropertyMinimalMovementUnderChurn is the property form of
// the minimal-movement guarantee: across seeded random memberships and
// random add/remove steps, an addition may move keys only onto the new
// member, and a removal moves only the removed member's keys — each to
// its next-ranked survivor.
func TestRankPropertyMinimalMovementUnderChurn(t *testing.T) {
	rng := rand.New(rand.NewSource(360))
	keys := testKeys(200)
	for trial := 0; trial < 25; trial++ {
		pool := rng.Perm(64)
		size := 3 + rng.Intn(8)
		nodes := make([]string, size)
		for i := range nodes {
			nodes[i] = fmt.Sprintf("edge-%d", pool[i])
		}
		if rng.Intn(2) == 0 {
			// Addition: only the newcomer may steal.
			joined := fmt.Sprintf("edge-%d", pool[size])
			grown := append(append([]string{}, nodes...), joined)
			stolen := 0
			for _, key := range keys {
				was, now := Rank(key, nodes)[0], Rank(key, grown)[0]
				if now == joined {
					stolen++
					continue
				}
				if now != was {
					t.Fatalf("trial %d: key %v moved %s→%s though %s joined", trial, key, was, now, joined)
				}
			}
			if stolen == 0 {
				t.Fatalf("trial %d: newcomer %s stole nothing from %d nodes", trial, joined, size)
			}
			continue
		}
		// Removal: only the departed member's keys move, each to its
		// next-ranked survivor.
		dead := nodes[rng.Intn(size)]
		survivors := make([]string, 0, size-1)
		for _, id := range nodes {
			if id != dead {
				survivors = append(survivors, id)
			}
		}
		for _, key := range keys {
			before := Rank(key, nodes)
			after := Rank(key, survivors)
			if before[0] == dead {
				if after[0] != before[1] {
					t.Fatalf("trial %d: key %v moved to %s, want next-ranked %s", trial, key, after[0], before[1])
				}
				continue
			}
			if after[0] != before[0] {
				t.Fatalf("trial %d: key %v moved %s→%s though %s departed", trial, key, before[0], after[0], dead)
			}
		}
	}
}

// TestOwnersSurviveSingleRemoval is the replication placement property:
// with R=2, after removing any single member every key keeps at least
// one of its previous owners in its new owner set — the copy that makes
// the removal free for warm keys.
func TestOwnersSurviveSingleRemoval(t *testing.T) {
	rng := rand.New(rand.NewSource(361))
	keys := testKeys(150)
	for trial := 0; trial < 15; trial++ {
		pool := rng.Perm(64)
		size := 3 + rng.Intn(6)
		nodes := make([]string, size)
		for i := range nodes {
			nodes[i] = fmt.Sprintf("edge-%d", pool[i])
		}
		for _, dead := range nodes {
			survivors := make([]string, 0, size-1)
			for _, id := range nodes {
				if id != dead {
					survivors = append(survivors, id)
				}
			}
			for _, key := range keys {
				was := Rank(key, nodes)[:2]
				now := Rank(key, survivors)[:2]
				if len(was) != 2 || len(now) != 2 {
					t.Fatalf("trial %d: owner sets sized %d/%d, want 2/2", trial, len(was), len(now))
				}
				kept := false
				for _, old := range was {
					if old == dead {
						continue
					}
					for _, cur := range now {
						if cur == old {
							kept = true
						}
					}
				}
				if !kept {
					t.Fatalf("trial %d: key %v lost both prior owners %v after removing %s (now %v)",
						trial, key, was, dead, now)
				}
			}
		}
	}
}

// rankEight ranks eight nodes for one key, as the router does once per
// request it walks.
func rankEight() func() {
	nodes := make([]string, 8)
	for i := range nodes {
		nodes[i] = fmt.Sprintf("edge-%d", i)
	}
	key := serve.ChunkKey{Video: "vid", Quality: 2, Tile: 7, Index: 123}
	return func() { Rank(key, nodes) }
}

// TestRankAllocs: Rank allocates the scored slice and the names handed
// back; rankInto into a stack buffer, as the router ranks, allocates
// nothing.
func TestRankAllocs(t *testing.T) {
	if n := testing.AllocsPerRun(100, rankEight()); n > 2 {
		t.Fatalf("Rank allocates %.0f objects, want at most 2", n)
	}
	nodes := make([]string, rankBuf)
	for i := range nodes {
		nodes[i] = fmt.Sprintf("edge-%d", i)
	}
	key := serve.ChunkKey{Video: "vid", Quality: 2, Tile: 7, Index: 123}
	if n := testing.AllocsPerRun(100, func() {
		var buf [rankBuf]rankedNode
		if ranked := rankInto(buf[:0], key, nodes); len(ranked) != len(nodes) {
			t.Fatalf("rankInto ranked %d of %d nodes", len(ranked), len(nodes))
		}
	}); n != 0 {
		t.Fatalf("rankInto into a stack buffer allocates %.0f objects, want 0", n)
	}
}

// TestRankIntoIsRank: over 0 to 12 nodes — past the router's stack
// buffer — rankInto orders them as Rank does, and both as a reference
// sort: higher score first, ties by name. Real scores almost never tie,
// so sortRanked is also held to the reference on scores drawn from three
// values, where most do.
func TestRankIntoIsRank(t *testing.T) {
	byRank := func(a, b rankedNode) int {
		if a.score != b.score {
			return cmp.Compare(b.score, a.score)
		}
		return cmp.Compare(a.id, b.id)
	}
	rng := rand.New(rand.NewSource(34))
	keys := testKeys(20)
	for n := 0; n <= 12; n++ {
		for trial := 0; trial < 20; trial++ {
			pool := rng.Perm(64)
			nodes := make([]string, n)
			tied := make([]rankedNode, n)
			for i := range nodes {
				nodes[i] = fmt.Sprintf("edge-%d", pool[i])
				tied[i] = rankedNode{id: nodes[i], score: uint64(rng.Intn(3))}
			}
			want := slices.Clone(tied)
			slices.SortFunc(want, byRank)
			if sortRanked(tied); !slices.Equal(tied, want) {
				t.Fatalf("%d nodes: sortRanked with tied scores = %v, want %v", n, tied, want)
			}

			key := keys[trial]
			var buf [rankBuf]rankedNode
			ranked := rankInto(buf[:0], key, nodes)
			ref := make([]rankedNode, n)
			for i, id := range nodes {
				ref[i] = rankedNode{id: id, score: rendezvousScore(id, key)}
			}
			slices.SortFunc(ref, byRank)
			rank := Rank(key, nodes)
			if !slices.Equal(ranked, ref) || len(rank) != n {
				t.Fatalf("%d nodes, key %v: rankInto = %v, want %v", n, key, ranked, ref)
			}
			for i, r := range ranked {
				if rank[i] != r.id {
					t.Fatalf("%d nodes, key %v: Rank = %v, rankInto = %v", n, key, rank, ranked)
				}
			}
		}
	}
}

func BenchmarkRank(b *testing.B) {
	rank := rankEight()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		rank()
	}
}
