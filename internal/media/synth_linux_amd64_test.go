package media

import (
	"os"
	"slices"
	"strings"
	"testing"

	"sperke/internal/obs"
)

// TestVectorKernelSelected: the kernel runs exactly where the kernel
// says the CPU has AVX512F and AVX512DQ, and never under -race. The log
// line records which generator this host runs.
func TestVectorKernelSelected(t *testing.T) {
	flags := cpuFlags(t)
	has := slices.Contains(flags, "avx512f") && slices.Contains(flags, "avx512dq")
	if avx512dq() != has {
		t.Fatalf("avx512dq() = %v, /proc/cpuinfo lists avx512f and avx512dq: %v", avx512dq(), has)
	}
	if want := has && !obs.RaceEnabled; vectorFill != want {
		t.Fatalf("vectorFill = %v, want %v (cpu has AVX-512 DQ: %v, -race: %v)", vectorFill, want, has, obs.RaceEnabled)
	}
	t.Logf("synthStream runs the AVX-512 kernel: %v (cpu has AVX-512 DQ: %v, -race: %v)", vectorFill, has, obs.RaceEnabled)
}

// TestVectorCRCSelected: the CRC kernel runs exactly where the kernel
// says the CPU has AVX512F and VPCLMULQDQ, and never under -race. The
// log line records which checksum this host runs.
func TestVectorCRCSelected(t *testing.T) {
	flags := cpuFlags(t)
	has := slices.Contains(flags, "avx512f") && slices.Contains(flags, "vpclmulqdq")
	if avx512clmul() != has {
		t.Fatalf("avx512clmul() = %v, /proc/cpuinfo lists avx512f and vpclmulqdq: %v", avx512clmul(), has)
	}
	if want := has && !obs.RaceEnabled; vectorCRC != want {
		t.Fatalf("vectorCRC = %v, want %v (cpu has VPCLMULQDQ: %v, -race: %v)", vectorCRC, want, has, obs.RaceEnabled)
	}
	t.Logf("segments are checksummed by the VPCLMULQDQ kernel: %v (cpu has VPCLMULQDQ: %v, -race: %v)", vectorCRC, has, obs.RaceEnabled)
}

// cpuFlags returns the first processor's flags from /proc/cpuinfo.
func cpuFlags(t *testing.T) []string {
	info, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		t.Skipf("no /proc/cpuinfo: %v", err)
	}
	for _, line := range strings.Split(string(info), "\n") {
		if name, value, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(name) == "flags" {
			return strings.Fields(value)
		}
	}
	return nil
}
