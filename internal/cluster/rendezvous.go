package cluster

import "sperke/internal/serve"

// rendezvousScore folds one node name, a 0xff separator and one chunk
// key (serve.ChunkKey.Fold) through FNV-1a into the node's weight for
// that key. Highest-random-weight routing falls out: every router
// computes the same scores, so placement needs no coordination, and
// removing a node from the live set disturbs only the keys that node
// was winning — every other key keeps its champion.
func rendezvousScore(node string, key serve.ChunkKey) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < len(node); i++ {
		h = (h ^ uint64(node[i])) * prime64
	}
	// The separator: ("ab","c…") must not collide with ("a","bc…").
	return key.Fold((h ^ 0xff) * prime64)
}

// Rank orders nodes for key by rendezvous (highest-random-weight)
// hashing, best first. The ranking is a pure function of (key, node
// set): independent of the input order, stable across processes, and
// minimal-movement under membership change — dropping one node from
// the set promotes each of its keys to that key's next-ranked node and
// moves nothing else. Ties (astronomically unlikely with 64-bit
// scores) break by name so the order stays total.
func Rank(key serve.ChunkKey, nodes []string) []string {
	ranked := rankInto(make([]rankedNode, 0, len(nodes)), key, nodes)
	out := make([]string, len(ranked))
	for i, r := range ranked {
		out[i] = r.id
	}
	return out
}

// rankedNode is one node and its rendezvous score for a key.
type rankedNode struct {
	id    string
	score uint64
}

// rankBuf is the node count a router ranks in a stack buffer; a larger
// set spills to the heap.
const rankBuf = 8

// rankInto is Rank into dst's storage, which it overwrites: the router
// ranks every request it walks, into a buffer on its stack.
func rankInto(dst []rankedNode, key serve.ChunkKey, nodes []string) []rankedNode {
	dst = dst[:0]
	for _, id := range nodes {
		dst = append(dst, rankedNode{id: id, score: rendezvousScore(id, key)})
	}
	sortRanked(dst)
	return dst
}

// sortRanked puts ranked in Rank's order — higher score first, ties by
// name — by insertion sort, the fastest sort for a cluster's few nodes.
func sortRanked(ranked []rankedNode) {
	for i := 1; i < len(ranked); i++ {
		r := ranked[i]
		j := i
		for ; j > 0; j-- {
			prev := ranked[j-1]
			if prev.score > r.score || prev.score == r.score && prev.id <= r.id {
				break
			}
			ranked[j] = prev
		}
		ranked[j] = r
	}
}
