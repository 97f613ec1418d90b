package netem

import (
	"fmt"
	"math"
	"time"

	"sperke/internal/sim"
)

// Delivery reports the outcome of a transfer over a Path.
type Delivery struct {
	// Start is when the transfer was submitted; Service when the link
	// began moving its bytes (after queueing behind earlier transfers);
	// Done when the last byte (plus propagation) arrived.
	Start, Service, Done time.Duration
	// Bytes is the transfer size.
	Bytes int64
	// OK is false when a best-effort transfer was lost.
	OK bool
}

// Throughput returns the observed goodput in bits/s over the service
// span — what a sequential HTTP client measures per request. Queueing
// behind the client's own earlier transfers is excluded, since a real
// player issues requests one at a time.
func (d Delivery) Throughput() float64 {
	el := (d.Done - d.Service).Seconds()
	if el <= 0 {
		return math.Inf(1)
	}
	return float64(d.Bytes) * 8 / el
}

// QoS selects the delivery semantics of a transfer (§3.3: FoV chunks
// reliable, OOS chunks best-effort).
type QoS int

const (
	// Reliable delivers every transfer; loss shows up as reduced goodput
	// (retransmissions), like TCP.
	Reliable QoS = iota
	// BestEffort delivers at full path rate but may drop the transfer
	// entirely, like an unreliable datagram stream.
	BestEffort
)

// Path is one emulated network path (e.g., "wifi" or "lte"): a FIFO
// bottleneck link with a bandwidth trace, a fixed one-way propagation
// latency, and a loss rate. Transfers submitted to a path serialize
// behind each other, as HTTP fetches over a single TCP connection do.
type Path struct {
	Name    string
	Latency time.Duration // one-way propagation
	Loss    float64       // packet loss probability in [0,1)

	clock      *sim.Clock
	trace      *BandwidthTrace
	freeAt     time.Duration // when the link drains its current queue
	inFlight   int
	bytesMoved int64
	outages    []outage
	free       *transfer // arrived transfers, for the next Transfer to reuse
}

// transfer is one transfer on its way: what its arrival has to report.
// A path schedules every arrival as the record's arrive method value,
// bound once, and takes the record back when it fires, so a client
// that fetches one chunk after another goes through the same record
// instead of building a closure per fetch.
type transfer struct {
	p          *Path
	arrive     func()
	now, start time.Duration
	bytes      int64
	ok         bool
	done       func(Delivery)
	next       *transfer
}

// schedule delivers the outcome to done at the given virtual time.
func (p *Path) schedule(at, now, start time.Duration, bytes int64, ok bool, done func(Delivery)) {
	t := p.free
	if t == nil {
		t = &transfer{p: p}
		t.arrive = t.fire
	} else {
		p.free = t.next
	}
	p.inFlight++
	t.now, t.start, t.bytes, t.ok, t.done = now, start, bytes, ok, done
	p.clock.Schedule(at, t.arrive)
}

// release puts the record back on its path's free list.
func (t *transfer) release() {
	t.done = nil
	t.next, t.p.free = t.p.free, t
}

func (t *transfer) fire() {
	p, now, start, bytes, ok, done := t.p, t.now, t.start, t.bytes, t.ok, t.done
	// Back on the free list before done runs: done may start the next
	// transfer.
	t.release()
	p.inFlight--
	if ok {
		p.bytesMoved += bytes
	}
	if done != nil {
		done(Delivery{Start: now, Service: start, Done: p.clock.Now(), Bytes: bytes, OK: ok})
	}
}

// outage is a half-open blackout window [from, to) during which the
// path carries nothing.
type outage struct{ from, to time.Duration }

// NewPath creates a path on the given clock. A nil trace means
// unlimited bandwidth.
func NewPath(clock *sim.Clock, name string, trace *BandwidthTrace, latency time.Duration, loss float64) *Path {
	if loss < 0 || loss >= 1 {
		panic(fmt.Sprintf("netem: loss %v out of [0,1)", loss))
	}
	return &Path{Name: name, Latency: latency, Loss: loss, clock: clock, trace: trace}
}

// SetTrace replaces the bandwidth schedule (takes effect for transfers
// that start afterwards).
func (p *Path) SetTrace(tr *BandwidthTrace) { p.trace = tr }

// Trace returns the current bandwidth schedule (nil = unlimited).
func (p *Path) Trace() *BandwidthTrace { return p.trace }

// AddOutage marks [from, to) as a blackout window: reliable transfers
// whose service would begin inside it defer to the window's end (TCP
// retransmitting until the path heals), best-effort transfers beginning
// inside it are lost deterministically. Callers modelling a full outage
// should also clamp the trace to zero over the window (see
// BandwidthTrace.Clamp) so transfers already in service stall through
// it.
func (p *Path) AddOutage(from, to time.Duration) {
	if to <= from {
		return
	}
	p.outages = append(p.outages, outage{from, to})
}

// InOutage reports whether t falls inside a registered outage window.
func (p *Path) InOutage(t time.Duration) bool {
	_, in := p.outageEnd(t)
	return in
}

// outageEnd returns the end of the outage window containing t, walking
// chained windows (an outage ending exactly where another begins).
func (p *Path) outageEnd(t time.Duration) (time.Duration, bool) {
	end, in := t, false
	for changed := true; changed; {
		changed = false
		for _, o := range p.outages {
			if end >= o.from && end < o.to {
				end, in, changed = o.to, true, true
			}
		}
	}
	return end, in
}

// Stall freezes the link for d starting now: transfers submitted from
// now on do not begin service before now+d. Transfers already scheduled
// keep their completion times (their bytes are already "in the pipe").
func (p *Path) Stall(d time.Duration) {
	if t := p.clock.Now() + d; t > p.freeAt {
		p.freeAt = t
	}
}

// RateAt reports the path's raw rate at time t (Inf for unlimited).
func (p *Path) RateAt(t time.Duration) float64 {
	if p.trace == nil {
		return math.Inf(1)
	}
	return p.trace.RateAt(t)
}

// goodputFactor converts raw rate into TCP-like goodput under loss:
// retransmissions and window collapses eat throughput superlinearly.
func (p *Path) goodputFactor() float64 {
	f := (1 - p.Loss) * (1 - p.Loss)
	return f
}

// InFlight reports the number of queued or active transfers.
func (p *Path) InFlight() int { return p.inFlight }

// BytesMoved reports the total bytes this path has delivered.
func (p *Path) BytesMoved() int64 { return p.bytesMoved }

// Transfer submits bytes for delivery with the given QoS and calls done
// with the outcome when the transfer completes (or is dropped). done may
// be nil.
func (p *Path) Transfer(bytes int64, qos QoS, done func(Delivery)) {
	now := p.clock.Now()
	start := now
	if p.freeAt > start {
		start = p.freeAt
	}
	if end, in := p.outageEnd(start); in {
		if qos == BestEffort {
			// The datagram burst enters a dead path and vanishes; the
			// sender learns of the loss once the window has passed.
			p.schedule(end, now, start, bytes, false, done)
			return
		}
		// Reliable transfers retransmit until the path heals: service
		// begins at the window's end.
		start = end
	}
	var finish time.Duration
	rate := p.RateAt(start)
	switch {
	case p.trace == nil || math.IsInf(rate, 1):
		finish = start
	case qos == Reliable:
		finish = p.trace.finishTime(start, p.inflate(bytes))
	default:
		finish = p.trace.finishTime(start, bytes)
	}
	p.freeAt = finish

	ok := true
	if qos == BestEffort && p.Loss > 0 {
		// A chunk survives only if all of its ~64 KiB bursts survive.
		bursts := float64(bytes)/65536 + 1
		if p.clock.RNG("netem:"+p.Name).Float64() > math.Pow(1-p.Loss, bursts) {
			ok = false
		}
	}
	p.schedule(finish+p.Latency, now, start, bytes, ok, done)
}

// EstimateTransferTime predicts how long a reliable transfer of bytes
// submitted now would take, including queueing and propagation — the
// planning primitive VRA and multipath schedulers use.
func (p *Path) EstimateTransferTime(bytes int64) time.Duration {
	now := p.clock.Now()
	start := now
	if p.freeAt > start {
		start = p.freeAt
	}
	if end, in := p.outageEnd(start); in {
		start = end
	}
	if p.trace == nil {
		return start - now + p.Latency
	}
	finish := p.trace.finishTime(start, p.inflate(bytes))
	return finish - now + p.Latency
}

// inflate stretches a reliable transfer by the inverse goodput factor to
// model retransmissions under loss. Loss-free paths move bytes exactly.
func (p *Path) inflate(bytes int64) int64 {
	if p.Loss == 0 {
		return bytes
	}
	eff := p.goodputFactor()
	if eff <= 0 {
		eff = 1e-9
	}
	return int64(math.Ceil(float64(bytes) / eff))
}
