//sperke:fixture path=internal/obs/clean.go

package obs

import (
	"math/rand"
	"time"
)

// Clock is the injected time source.
type Clock interface{ Now() time.Duration }

// Draw threads an injected clock and an explicitly seeded generator.
func Draw(c Clock, seed int64) (time.Duration, int) {
	rng := rand.New(rand.NewSource(seed))
	return c.Now(), rng.Intn(10)
}

// NewWall is the designated wall seam, waived by name on the
// clockhygiene allowlist.
func NewWall() time.Time {
	return time.Now()
}
