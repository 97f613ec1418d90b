//go:build !amd64

package media

// Off amd64 there is no kernel: hash/crc32 is the only checksum.
const vectorCRC = false

func avx512clmul() bool { return false }

func crcVector(crc uint32, p *byte, n int) uint32 {
	panic("media: no vector CRC kernel on this architecture")
}
