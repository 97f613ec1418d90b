//go:build !amd64

package tiling

// Off amd64 there is no kernel: the Go loop is the only path.
const vectorMark = false

func markLattice(vp *Viewport, r *rotation, handed *[markGroups]uint8) uint64 {
	panic("tiling: no lattice kernel on this architecture")
}
