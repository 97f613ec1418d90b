//sperke:fixture path=internal/dash/body.go
package dash

// BuildChunkBody mirrors the real materializing builder: defining it is
// fine — calling it from a serving hot path is not.
func BuildChunkBody(n int) []byte { return make([]byte, n) }
