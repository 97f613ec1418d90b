package serve_test

import (
	"context"
	"fmt"

	"sperke/internal/obs"
	"sperke/internal/serve"
)

// ExampleNew builds the chunk store a cluster edge runs: a miss
// synthesizes the body once, and a repeat is served from memory.
func ExampleNew() {
	reg := obs.NewRegistry()
	synth := func(key serve.ChunkKey) ([]byte, error) {
		return []byte(key.String()), nil
	}
	store := serve.New(serve.WithBodySynth(synth), serve.WithShards(4), serve.WithBudget(1<<20), serve.WithObs(reg))
	key := serve.ChunkKey{Video: "demo", Quality: 2, Tile: 7, Index: 3}
	for i := 0; i < 3; i++ {
		body, err := store.Get(context.Background(), key)
		if err != nil {
			panic(err)
		}
		fmt.Printf("get %d: %q\n", i, body)
	}
	fmt.Printf("%d shards, %d hits, %d miss, %d bytes resident\n", store.Shards(),
		reg.Counter("serve.store.hits").Value(), reg.Counter("serve.store.misses").Value(), store.Bytes())
	// Output:
	// get 0: "demo/q2/t7/i3(avc)"
	// get 1: "demo/q2/t7/i3(avc)"
	// get 2: "demo/q2/t7/i3(avc)"
	// 4 shards, 2 hits, 1 miss, 18 bytes resident
}
