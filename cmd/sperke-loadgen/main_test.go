package main

import (
	"context"
	"net"
	"slices"
	"strings"
	"testing"
	"time"

	"sperke/internal/media"
	"sperke/internal/serve"
	"sperke/internal/tiling"
)

// TestRunFailsWhenFetchesFail: a run whose HTTP leg reached nothing is
// not a successful run, whatever the simulated sessions report. The
// origin is a port just closed; the deadline only cuts short the
// client's retries, which would otherwise take half a minute to give up
// on every chunk.
func TestRunFailsWhenFetchesFail(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	closed := "http://" + ln.Addr().String()
	ln.Close()
	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	if err := run(ctx, []string{"-sessions", "1", "-duration", "4s", "-url", closed}); err == nil {
		t.Fatal("run against a closed port returned nil")
	}
}

// TestRunRefusesIgnoredFlags: a flag the run would not act on, a number
// it would replace with a default, and a flag it does not have are
// errors returned before any listener or viewer starts. The context is
// already cancelled, so whatever the command did start ends at once.
func TestRunRefusesIgnoredFlags(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, c := range [][2]string{
		{"-sessions 0", "-sessions must be at least 1"},
		{"-store-budget-mb 0", "-store-budget-mb must be at least 1"},
		{"-workers -1", "-workers must be 0 or more"},
		{"-nodes 3 -replicas 0", "-replicas must be at least 1"},
		{"-nodes 3 -prewarm -1", "-prewarm must be 0 or more"},
		{"-nodes -1", "-nodes must be 0 or more"},
		{"-store-shards 8", "flag provided but not defined: -store-shards"},
		{"-prewarm 4", "-prewarm needs -nodes"},
		{"-wire", "-wire needs -nodes"},
		{"-replicas 2", "-replicas needs -nodes"},
		{"-add-node-at 1s", "-add-node-at needs -nodes"},
		{"-kill-at 1s", "-kill-at needs -nodes"},
		{"-recover-at 2s", "-recover-at needs -nodes"},
		{"-nodes 3 -url http://127.0.0.1:1", "cannot go with -url or -no-http"},
		{"-nodes 3 -no-http", "cannot go with -url or -no-http"},
		{"-nodes 3 -recover-at 2s", "needs an earlier -kill-at"},
		{"-nodes 3 -kill-at 2s -recover-at 1s", "needs an earlier -kill-at"},
	} {
		err := run(ctx, strings.Fields("-sessions 1 -duration 4s "+c[0]))
		if err == nil || !strings.Contains(err.Error(), c[1]) {
			t.Errorf("run %s = %v, want an error containing %q", c[0], err, c[1])
		}
	}
}

// TestCrowdPriorIsHeldOut: the pre-warm prior learns from viewers the
// run never drives, so no head it is built from is one the run plays.
func TestCrowdPriorIsHeldOut(t *testing.T) {
	video := &media.Video{Duration: 20 * time.Second, ChunkDuration: 2 * time.Second, Grid: tiling.GridCellular}
	for _, n := range []int{1, 12, 40} {
		played := serve.SessionTraces(serve.EngineConfig{Video: video, Sessions: n, BaseSeed: 42})
		held := heldOutCrowd(video, n, 42)
		if len(held) != n {
			t.Fatalf("%d viewers: the prior learns from %d", n, len(held))
		}
		for i, h := range held {
			for j, p := range played {
				if slices.Equal(h.Samples, p.Samples) {
					t.Fatalf("%d viewers: prior trace %d is played trace %d", n, i, j)
				}
			}
		}
	}
}
