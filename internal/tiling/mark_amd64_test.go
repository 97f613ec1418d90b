package tiling

import (
	"testing"

	"sperke/internal/cpu"
	"sperke/internal/obs"
)

// TestVectorMarkSelected: the lattice kernel runs exactly where the CPU
// has AVX512F (cpu's TestZMMMatchesCPUInfo holds the gate to
// /proc/cpuinfo), and never under -race. The log line records which
// path this host's sessions take.
func TestVectorMarkSelected(t *testing.T) {
	has := cpu.ZMM(cpu.AVX512F, 0)
	if want := has && !obs.RaceEnabled; vectorMark != want {
		t.Fatalf("vectorMark = %v, want %v (cpu has AVX512F: %v, -race: %v)", vectorMark, want, has, obs.RaceEnabled)
	}
	t.Logf("Viewport.mark runs the lattice kernel: %v (cpu has AVX512F: %v, -race: %v)", vectorMark, has, obs.RaceEnabled)
}
