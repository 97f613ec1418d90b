package netem

import (
	"net"
	"sync"
	"time"
)

// RateLimitedConn wraps a real net.Conn and throttles writes to a target
// rate with a token bucket running on wall-clock time. Loopback
// integration tests use it the way the paper's testbed uses `tc`
// (§3.4.1): to emulate a constrained uplink or downlink underneath an
// otherwise-real protocol stack.
type RateLimitedConn struct {
	net.Conn

	mu      sync.Mutex
	bps     float64
	burst   int
	tokens  float64
	last    time.Time
	nowFunc func() time.Time
	sleep   func(time.Duration)
}

// NewRateLimitedConn shapes conn's write path to bps bits/s with the
// given burst allowance in bytes (<=0 means 32 KiB). bps <= 0 means
// unlimited.
func NewRateLimitedConn(conn net.Conn, bps float64, burst int) *RateLimitedConn {
	if burst <= 0 {
		burst = 32 << 10
	}
	return &RateLimitedConn{
		Conn:    conn,
		bps:     bps,
		burst:   burst,
		tokens:  float64(burst),
		last:    time.Now(),
		nowFunc: time.Now,
		sleep:   time.Sleep,
	}
}

// Write implements net.Conn, blocking as needed to respect the rate.
func (c *RateLimitedConn) Write(p []byte) (int, error) {
	if c.bps <= 0 {
		return c.Conn.Write(p)
	}
	written := 0
	for written < len(p) {
		n := len(p) - written
		if n > c.burst {
			n = c.burst
		}
		c.waitFor(n)
		m, err := c.Conn.Write(p[written : written+n])
		written += m
		if err != nil {
			return written, err
		}
	}
	return written, nil
}

// waitFor blocks until n bytes of budget are available, then spends it.
func (c *RateLimitedConn) waitFor(n int) {
	for {
		c.mu.Lock()
		now := c.nowFunc()
		elapsed := now.Sub(c.last).Seconds()
		c.last = now
		c.tokens += elapsed * c.bps / 8
		if c.tokens > float64(c.burst) {
			c.tokens = float64(c.burst)
		}
		if c.tokens >= float64(n) {
			c.tokens -= float64(n)
			c.mu.Unlock()
			return
		}
		deficit := float64(n) - c.tokens
		wait := time.Duration(deficit / (c.bps / 8) * float64(time.Second))
		c.mu.Unlock()
		if wait < time.Millisecond {
			wait = time.Millisecond
		}
		c.sleep(wait)
	}
}
