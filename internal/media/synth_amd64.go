package media

import (
	"sperke/internal/cpu"
	"sperke/internal/obs"
)

// vectorFill selects the AVX-512 kernel (synth_amd64.s), once, at init.
// The race detector cannot see the kernel's stores, so a -race build
// keeps the Go loop.
var vectorFill = !obs.RaceEnabled && avx512dq()

// avx512dq reports whether the CPU has AVX512F and AVX512DQ (VPMULLQ)
// and the OS saves the opmask and ZMM state across context switches.
func avx512dq() bool { return cpu.ZMM(cpu.AVX512F|cpu.AVX512DQ, 0) }

// fillVector writes the n bytes after counter x to p, n a positive
// multiple of 256: fillLoop's output, eight words per instruction.
//
//go:noescape
func fillVector(x uint64, p *byte, n int)
