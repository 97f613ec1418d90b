package tiling

import (
	"sperke/internal/cpu"
	"sperke/internal/obs"
)

// vectorMark selects the AVX-512 lattice kernel (mark_amd64.s), once, at
// init. The race detector cannot see the kernel's loads, so a -race
// build keeps the Go loop.
var vectorMark = !obs.RaceEnabled && cpu.ZMM(cpu.AVX512F, 0)

// markLattice classifies the whole lattice of vp, which classifies and
// has at most 64 tiles, under rotation r, eight samples per
// instruction. It returns the tiles of the samples it classified as a
// mask, bit id for tile id, and sets bit k of handed[g] for each lane k
// of group g (latticeSample) it did not: those borders.tileOf would
// refuse. Its directions are the loop's bit for bit where the compiler
// does not fuse the loop's multiplies and adds (GOAMD64 below v3); where
// it does, they differ by an ulp or so, seven orders of magnitude inside
// guard, and the tiles are still the loop's.
//
//go:noescape
func markLattice(vp *Viewport, r *rotation, handed *[markGroups]uint8) (tiles uint64)
