package multipath

import (
	"testing"
	"time"

	"sperke/internal/sim"
	"sperke/internal/transport"
	"sperke/internal/transport/transporttest"
)

// TestOnDoneContract runs the shared transport.Request.OnDone check on
// this package's schedulers. Every completion closure here captures its
// Request, which is what the check is for: none may look at it again
// once OnDone has run — not the losing copy of a duplicated urgent
// chunk, not a late subflow.
func TestOnDoneContract(t *testing.T) {
	var subs []transporttest.Submission
	for i := 0; i < 48; i++ {
		s := transporttest.Submission{
			Bytes:    int64(30e3 + 11e3*float64(i%4)),
			Deadline: time.Minute,
			Urgent:   i%3 == 1,
			Canceled: i%8 == 6, // no scheduler here takes a context: it must not matter
		}
		if i%2 == 1 {
			s.Class = transport.ClassOOS // best-effort on lte, which loses some
		}
		if i%5 == 2 {
			s.Deadline = time.Duration(i) * 20 * time.Millisecond
		}
		subs = append(subs, s)
	}
	for name, mk := range map[string]func(*sim.Clock) transport.Scheduler{
		"mptcp": func(c *sim.Clock) transport.Scheduler {
			wifi, lte := twoPaths(c)
			return NewMPTCPLike(c, wifi, lte)
		},
		"content-aware": func(c *sim.Clock) transport.Scheduler {
			wifi, lte := twoPaths(c)
			return NewContentAware(c, wifi, lte)
		},
		"content-aware-duplicate-urgent": func(c *sim.Clock) transport.Scheduler {
			wifi, lte := twoPaths(c)
			ca := NewContentAware(c, wifi, lte)
			ca.DuplicateUrgent = true
			return ca
		},
	} {
		t.Run(name, func(t *testing.T) { transporttest.CheckOnDoneContract(t, 3, subs, mk) })
	}
}
