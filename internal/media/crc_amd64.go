package media

import (
	"sperke/internal/cpu"
	"sperke/internal/obs"
)

// vectorCRC selects the VPCLMULQDQ kernel (crc_amd64.s), once, at init.
// The race detector cannot see the kernel's loads, so a -race build
// keeps hash/crc32.
var vectorCRC = !obs.RaceEnabled && avx512clmul()

// avx512clmul reports whether the CPU has AVX512F and VPCLMULQDQ and
// the OS saves the opmask and ZMM state across context switches.
func avx512clmul() bool { return cpu.ZMM(cpu.AVX512F, cpu.VPCLMULQDQ) }

// crcVector returns crc32.Update(crc, crc32.IEEETable, p[:n]), n a
// positive multiple of 256, folding 256 bytes per iteration.
//
//go:noescape
func crcVector(crc uint32, p *byte, n int) uint32
