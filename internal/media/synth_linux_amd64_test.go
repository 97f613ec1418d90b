package media

import (
	"testing"

	"sperke/internal/cpu"
	"sperke/internal/obs"
)

// TestVectorKernelSelected: the kernel runs exactly where the CPU has
// AVX512F and AVX512DQ (cpu's TestZMMMatchesCPUInfo holds the gate to
// /proc/cpuinfo), and never under -race. The log line records which
// generator this host runs.
func TestVectorKernelSelected(t *testing.T) {
	has := cpu.ZMM(cpu.AVX512F|cpu.AVX512DQ, 0)
	if want := has && !obs.RaceEnabled; vectorFill != want {
		t.Fatalf("vectorFill = %v, want %v (cpu has AVX-512 DQ: %v, -race: %v)", vectorFill, want, has, obs.RaceEnabled)
	}
	t.Logf("synthStream runs the AVX-512 kernel: %v (cpu has AVX-512 DQ: %v, -race: %v)", vectorFill, has, obs.RaceEnabled)
}

// TestVectorCRCSelected: the CRC kernel runs exactly where the CPU has
// AVX512F and VPCLMULQDQ, and never under -race. The log line records
// which checksum this host runs.
func TestVectorCRCSelected(t *testing.T) {
	has := cpu.ZMM(cpu.AVX512F, cpu.VPCLMULQDQ)
	if want := has && !obs.RaceEnabled; vectorCRC != want {
		t.Fatalf("vectorCRC = %v, want %v (cpu has VPCLMULQDQ: %v, -race: %v)", vectorCRC, want, has, obs.RaceEnabled)
	}
	t.Logf("segments are checksummed by the VPCLMULQDQ kernel: %v (cpu has VPCLMULQDQ: %v, -race: %v)", vectorCRC, has, obs.RaceEnabled)
}
