package multipath

import (
	"time"

	"sperke/internal/netem"
	"sperke/internal/obs"
	"sperke/internal/transport"
)

// coded explores the transport-layer primitive §3.3 closes with:
// network-coding-style redundancy [22]. Each chunk is split into K
// equal fragments plus R coded repair fragments; fragments are sprayed
// across all paths round-robin, and the chunk completes as soon as any
// K fragments arrive. Against a lossy or momentarily-slow path this
// buys deadline robustness for a bounded bandwidth overhead R/K —
// without the full duplication of ContentAware.DuplicateUrgent.
type coded struct {
	Paths []*netem.Path
	Clock obs.Clock
	// DataFragments (K) and RepairFragments (R); zero values default to
	// 4 and 1 (25% redundancy).
	DataFragments, RepairFragments int
}

// Name implements transport.Scheduler.
func (c *coded) Name() string { return "coded" }

func (c *coded) k() int {
	if c.DataFragments <= 0 {
		return 4
	}
	return c.DataFragments
}

func (c *coded) r() int {
	if c.RepairFragments < 0 {
		return 0
	}
	if c.RepairFragments == 0 && c.DataFragments <= 0 {
		return 1
	}
	return c.RepairFragments
}

// Submit implements transport.Scheduler. Fragments are sent
// best-effort: the code, not retransmission, provides reliability —
// that is the point of the primitive.
func (c *coded) Submit(req *transport.Request) {
	if len(c.Paths) == 0 {
		return
	}
	k, r := c.k(), c.r()
	total := k + r
	fragBytes := req.Bytes / int64(k)
	if fragBytes <= 0 {
		fragBytes = 1
	}
	arrived := 0
	finished := false
	var firstStart time.Duration = -1
	var lastDone time.Duration
	done := 0
	for i := 0; i < total; i++ {
		path := c.Paths[i%len(c.Paths)]
		path.Transfer(fragBytes, netem.BestEffort, func(d netem.Delivery) {
			done++
			if firstStart < 0 || d.Start < firstStart {
				firstStart = d.Start
			}
			if d.OK {
				arrived++
			}
			if !finished && arrived >= k {
				finished = true
				if req.OnDone != nil {
					req.OnDone(netem.Delivery{
						Start: firstStart, Service: d.Service, Done: d.Done,
						Bytes: req.Bytes, OK: true,
					}, d.Done <= req.Deadline)
				}
				return
			}
			if !finished && done == total {
				// All fragments accounted for and fewer than K arrived:
				// the chunk is lost (would need retransmission upstream).
				if d.Done > lastDone {
					lastDone = d.Done
				}
				if req.OnDone != nil {
					req.OnDone(netem.Delivery{
						Start: firstStart, Service: d.Service, Done: lastDone,
						Bytes: req.Bytes, OK: false,
					}, false)
				}
			}
		})
	}
}
