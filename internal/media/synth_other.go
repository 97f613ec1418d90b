//go:build !amd64

package media

// Off amd64 there is no kernel: the Go loop is the only generator.
const vectorFill = false

func avx512dq() bool { return false }

func fillVector(x uint64, p *byte, n int) { panic("media: no vector kernel on this architecture") }
