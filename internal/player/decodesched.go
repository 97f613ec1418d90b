package player

import (
	"container/heap"
	"time"

	"sperke/internal/codec"
	"sperke/internal/obs"
	"sperke/internal/sim"
)

// DecodeJob is one tile chunk awaiting decode.
type DecodeJob struct {
	Key    FrameCacheKey
	Pixels int64
	// PlayAt is the wall time the decoded tile must be in the frame
	// cache.
	PlayAt time.Duration
	// InFoV marks tiles the HMP expects in view — they outrank OOS
	// tiles with equal deadlines.
	InFoV bool
	// OnDecoded, if set, fires when the tile lands in the cache.
	OnDecoded func(missedDeadline bool)

	seq int
}

// less orders jobs by §3.5's decoding-scheduler policy: earliest
// playback time first; FoV before OOS on ties; then submission order.
func (j *DecodeJob) less(o *DecodeJob) bool {
	if j.PlayAt != o.PlayAt {
		return j.PlayAt < o.PlayAt
	}
	if j.InFoV != o.InFoV {
		return j.InFoV
	}
	return j.seq < o.seq
}

type jobHeap []*DecodeJob

func (h jobHeap) Len() int           { return len(h) }
func (h jobHeap) Less(i, j int) bool { return h[i].less(h[j]) }
func (h jobHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *jobHeap) Push(x any)        { *h = append(*h, x.(*DecodeJob)) }
func (h *jobHeap) Pop() any {
	old := *h
	n := len(old)
	j := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return j
}

// DecodeScheduler is the "decoding scheduler" box of Fig. 4: it holds
// decode jobs in a deadline/HMP priority queue and feeds the hardware
// decoder pool, keeping at most one job per decoder outstanding so a
// newly urgent tile can overtake queued distant ones. Decoded tiles
// land in the frame cache.
type DecodeScheduler struct {
	clock *sim.Clock
	pool  *codec.Pool
	cache *FrameCache

	queue       jobHeap
	seq         int
	outstanding int

	met decodeMetrics
}

// decodeMetrics caches the instruments SetObs wires; nil fields no-op.
type decodeMetrics struct {
	hits    *obs.Counter
	misses  *obs.Counter
	pending *obs.Gauge
}

// NewDecodeScheduler wires the scheduler to a pool and cache.
func NewDecodeScheduler(clock *sim.Clock, pool *codec.Pool, cache *FrameCache) *DecodeScheduler {
	return &DecodeScheduler{clock: clock, pool: pool, cache: cache}
}

// SetObs wires the scheduler into a metrics registry: decode-deadline
// hit/miss counters and a pending-jobs gauge (player.decode.*). Nil
// disables metrics.
func (s *DecodeScheduler) SetObs(r *obs.Registry) {
	s.met = decodeMetrics{
		hits:    r.Counter("player.decode.deadline_hits"),
		misses:  r.Counter("player.decode.deadline_misses"),
		pending: r.Gauge("player.decode.pending"),
	}
}

// Submit enqueues a decode job.
func (s *DecodeScheduler) Submit(job DecodeJob) {
	j := job
	j.seq = s.seq
	s.seq++
	heap.Push(&s.queue, &j)
	s.pump()
}

func (s *DecodeScheduler) pump() {
	for s.outstanding < s.pool.Size() && len(s.queue) > 0 {
		j := heap.Pop(&s.queue).(*DecodeJob)
		s.outstanding++
		s.pool.Submit(j.Pixels, func() {
			s.outstanding--
			missed := s.clock.Now() > j.PlayAt
			if missed {
				s.met.misses.Inc()
			} else {
				s.met.hits.Inc()
			}
			if s.cache != nil {
				s.cache.Put(j.Key)
			}
			if j.OnDecoded != nil {
				j.OnDecoded(missed)
			}
			s.pump()
		})
	}
	s.met.pending.Set(int64(len(s.queue)))
}
