package core_test

import (
	"fmt"
	"math/rand"
	"time"

	"sperke/internal/core"
	"sperke/internal/media"
	"sperke/internal/netem"
	"sperke/internal/sim"
	"sperke/internal/tiling"
	"sperke/internal/trace"
	"sperke/internal/transport"
)

// ExampleSession runs a complete FoV-guided streaming session on the
// deterministic simulator: this is the package's front door.
func ExampleSession() {
	video := &media.Video{
		ID:            "example",
		Duration:      20 * time.Second,
		ChunkDuration: 2 * time.Second,
		Grid:          tiling.GridCellular,
		Ladder:        media.DefaultLadder,
		Encoding:      media.EncodingAVC,
	}
	clock := sim.NewClock(1)
	path := netem.NewPath(clock, "net", netem.Constant(20e6), 20*time.Millisecond, 0)
	sched := transport.NewSinglePath(clock, path)

	rng := rand.New(rand.NewSource(1))
	att := trace.GenerateAttention(rand.New(rand.NewSource(2)), 30*time.Second)
	head := trace.Generate(rng, trace.UserProfile{SpeedScale: 1}, att, 30*time.Second)

	session, err := core.NewSession(clock, core.Config{
		Video: video,
		Mode:  core.FoVGuided,
	}, head, sched)
	if err != nil {
		panic(err)
	}
	report := session.Run()
	fmt.Printf("played %v with %d stalls\n", report.QoE.PlayTime, report.QoE.Stalls)
	// Output:
	// played 20s with 0 stalls
}
