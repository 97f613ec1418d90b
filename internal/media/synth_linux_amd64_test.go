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
	info, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		t.Skipf("no /proc/cpuinfo: %v", err)
	}
	var flags []string
	for _, line := range strings.Split(string(info), "\n") {
		if name, value, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(name) == "flags" {
			flags = strings.Fields(value)
			break
		}
	}
	has := slices.Contains(flags, "avx512f") && slices.Contains(flags, "avx512dq")
	if avx512dq() != has {
		t.Fatalf("avx512dq() = %v, /proc/cpuinfo lists avx512f and avx512dq: %v", avx512dq(), has)
	}
	if want := has && !obs.RaceEnabled; vectorFill != want {
		t.Fatalf("vectorFill = %v, want %v (cpu has AVX-512 DQ: %v, -race: %v)", vectorFill, want, has, obs.RaceEnabled)
	}
	t.Logf("synthStream runs the AVX-512 kernel: %v (cpu has AVX-512 DQ: %v, -race: %v)", vectorFill, has, obs.RaceEnabled)
}
