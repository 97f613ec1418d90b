package cpu

import (
	"os"
	"slices"
	"strings"
	"testing"
)

// TestZMMMatchesCPUInfo: ZMM reports each feature set the kernels ask
// for exactly where /proc/cpuinfo lists all of its flags. (A kernel
// that /proc/cpuinfo lists but the OS does not save the state of is a
// case this check cannot see.)
func TestZMMMatchesCPUInfo(t *testing.T) {
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
	for _, tc := range []struct {
		ebx, ecx uint32
		flags    []string
	}{
		{AVX512F, 0, []string{"avx512f"}},
		{AVX512F | AVX512DQ, 0, []string{"avx512f", "avx512dq"}},
		{AVX512F, VPCLMULQDQ, []string{"avx512f", "vpclmulqdq"}},
	} {
		has := true
		for _, f := range tc.flags {
			has = has && slices.Contains(flags, f)
		}
		if got := ZMM(tc.ebx, tc.ecx); got != has {
			t.Errorf("ZMM(%#x, %#x) = %v, /proc/cpuinfo lists %v: %v", tc.ebx, tc.ecx, got, tc.flags, has)
		}
		t.Logf("%v: %v", tc.flags, has)
	}
}
