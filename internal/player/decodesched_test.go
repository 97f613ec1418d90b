package player

import (
	"testing"
	"time"

	"sperke/internal/codec"
	"sperke/internal/obs"
	"sperke/internal/sim"
	"sperke/internal/tiling"
)

// testScheduler builds a 1-decoder scheduler so ordering is observable.
func testScheduler(t *testing.T, decoders int) (*sim.Clock, *DecodeScheduler, *FrameCache) {
	t.Helper()
	clock := sim.NewClock(1)
	pool := codec.NewPool(clock, codec.DecoderSpec{PixelRate: 1e6}, decoders)
	cache := NewFrameCache(16)
	return clock, NewDecodeScheduler(clock, pool, cache), cache
}

func job(tile int, playAt time.Duration, fov bool, done func(bool)) DecodeJob {
	return DecodeJob{
		Key:       FrameCacheKey{Tile: tiling.TileID(tile)},
		Pixels:    1e5, // 100 ms at 1e6 px/s
		PlayAt:    playAt,
		InFoV:     fov,
		OnDecoded: done,
	}
}

func TestDecodeSchedulerDeadlineOrder(t *testing.T) {
	clock, s, _ := testScheduler(t, 1)
	var order []tiling.TileID
	rec := func(tile int) func(bool) {
		return func(bool) { order = append(order, tiling.TileID(tile)) }
	}
	// Submit far-deadline jobs first; a near-deadline job must overtake
	// all queued ones (but not the one already decoding).
	s.Submit(job(1, 10*time.Second, true, rec(1)))
	s.Submit(job(2, 8*time.Second, true, rec(2)))
	s.Submit(job(3, 6*time.Second, true, rec(3)))
	s.Submit(job(4, 500*time.Millisecond, true, rec(4)))
	clock.Run()
	want := []tiling.TileID{1, 4, 3, 2}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("decode order %v, want %v", order, want)
		}
	}
}

func TestDecodeSchedulerFoVBeforeOOS(t *testing.T) {
	clock, s, _ := testScheduler(t, 1)
	var order []tiling.TileID
	rec := func(tile int) func(bool) {
		return func(bool) { order = append(order, tiling.TileID(tile)) }
	}
	deadline := 5 * time.Second
	s.Submit(job(1, deadline, false, rec(1))) // decoding immediately
	s.Submit(job(2, deadline, false, rec(2))) // OOS queued
	s.Submit(job(3, deadline, true, rec(3)))  // FoV, same deadline
	clock.Run()
	if order[1] != 3 {
		t.Fatalf("FoV tile did not outrank OOS: %v", order)
	}
}

func TestDecodeSchedulerFillsPool(t *testing.T) {
	clock, s, _ := testScheduler(t, 4)
	finish := make([]time.Duration, 0, 4)
	for i := 0; i < 4; i++ {
		s.Submit(job(i, time.Minute, true, func(bool) { finish = append(finish, clock.Now()) }))
	}
	clock.Run()
	// Four decoders: all four finish at 100 ms.
	for _, f := range finish {
		if f != 100*time.Millisecond {
			t.Fatalf("parallel finish at %v", f)
		}
	}
}

func TestDecodeSchedulerMissedDeadlines(t *testing.T) {
	clock, s, _ := testScheduler(t, 1)
	reg := obs.NewRegistry()
	s.SetObs(reg)
	// 100 ms per job, deadlines at 150 ms: job 1 meets, jobs 2-3 miss.
	missed := 0
	for i := 0; i < 3; i++ {
		s.Submit(job(i, 150*time.Millisecond, true, func(m bool) {
			if m {
				missed++
			}
		}))
	}
	clock.Run()
	if missed != 2 {
		t.Fatalf("missed = %d, want 2", missed)
	}
	snap := reg.Snapshot()
	if m, h := snap.Counters["player.decode.deadline_misses"], snap.Counters["player.decode.deadline_hits"]; m != 2 || h != 1 {
		t.Fatalf("deadline misses/hits = %d/%d, want 2/1", m, h)
	}
}

func TestDecodeSchedulerPopulatesCache(t *testing.T) {
	clock, s, cache := testScheduler(t, 1)
	s.Submit(job(7, time.Second, true, nil))
	clock.Run()
	if !cache.Has(FrameCacheKey{Tile: 7}) {
		t.Fatal("decoded tile missing from frame cache")
	}
}

func TestDecodeSchedulerPendingCount(t *testing.T) {
	clock, s, _ := testScheduler(t, 1)
	for i := 0; i < 5; i++ {
		s.Submit(job(i, time.Minute, true, nil))
	}
	// One outstanding, four queued.
	if len(s.queue) != 4 {
		t.Fatalf("Pending = %d, want 4", len(s.queue))
	}
	clock.Run()
	if len(s.queue) != 0 {
		t.Fatalf("Pending = %d after drain", len(s.queue))
	}
}
