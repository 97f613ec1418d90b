package cluster

import (
	"context"
	"testing"
	"time"

	"sperke/internal/faults"
	"sperke/internal/obs"
	"sperke/internal/sim"
)

// nodeRequestSnapshot captures every node's admitted-request counter.
func nodeRequestSnapshot(c *Cluster) map[string]int64 {
	out := make(map[string]int64)
	for _, n := range c.Nodes() {
		out[n.ID()] = n.Requests()
	}
	return out
}

// TestClusterFailoverDeterministic is the PR's acceptance scenario: a
// seeded run with a scripted mid-run node kill and recovery, asserting
// zero failed fetches, rendezvous moving only the dead node's keys
// (via per-node request counters), and the origin offload ratio
// returning to its pre-outage value once the node is back and warm.
func TestClusterFailoverDeterministic(t *testing.T) {
	const dead = "edge-1"
	origin := &countingOrigin{}
	clock := sim.NewClock(7)
	reg := obs.NewRegistry()
	c, err := New(origin, WithNodes(3), WithClock(clock), WithObs(reg),
		WithHealth(HealthConfig{FailThreshold: 3, ProbeSuccesses: 2,
			Cooldown: 500 * time.Millisecond, ProbeInterval: 250 * time.Millisecond}))
	if err != nil {
		t.Fatal(err)
	}

	// The outage script: edge-1 crashes at 10s and restarts at 15s.
	// ApplyNodes arms it before the probe pump so the recovery event
	// precedes the same-tick probe sweep.
	plan := faults.MustParse("node:" + dead + ":10s:5s")
	if err := plan.ApplyNodes(clock, c); err != nil {
		t.Fatal(err)
	}
	// Probe pump on the virtual clock: deterministic stand-in for
	// StartProbes' wall-clock loop.
	for at := 250 * time.Millisecond; at <= 20*time.Second; at += 250 * time.Millisecond {
		clock.Schedule(at, c.ProbeAll)
	}

	keys := testKeys(90)
	ids := c.NodeNames()
	primaryCount := map[string]int{}
	deadKeys := 0
	for _, key := range keys {
		top := Rank(key, ids)[0]
		primaryCount[top]++
		if top == dead {
			deadKeys++
		}
	}
	if deadKeys == 0 {
		t.Fatal("no key routes to the node being killed; scenario asserts nothing")
	}

	fetchAll := func() int {
		errs := 0
		for _, key := range keys {
			if _, err := c.Chunk(context.Background(), key.Video, key.Quality, key.Tile, key.Index, key.Layer); err != nil {
				errs++
			}
		}
		return errs
	}
	// windowed offload over one fetchAll pass, in basis points.
	offloadWindow := func(fetch func() int) (errs int, bp int64) {
		reqA, fetchA := c.OffloadCounts()
		errs = fetch()
		reqB, fetchB := c.OffloadCounts()
		dreq, dfetch := reqB-reqA, fetchB-fetchA
		if dreq == 0 {
			t.Fatal("offload window saw no requests")
		}
		return errs, (dreq - dfetch) * 10000 / dreq
	}

	// Phase A: warm the cluster, then measure steady-state offload.
	if errs := fetchAll(); errs != 0 {
		t.Fatalf("warm pass: %d failed fetches", errs)
	}
	errs, warmBP := offloadWindow(fetchAll)
	if errs != 0 {
		t.Fatalf("steady pass: %d failed fetches", errs)
	}
	if warmBP != 10000 {
		t.Fatalf("steady-state offload = %d bp, want 10000 (all edge hits)", warmBP)
	}

	// Advance through the kill at 10s; by 11s the probe pump has fed the
	// detector three failures and declared the node down.
	clock.RunUntil(11 * time.Second)
	if got := reg.Gauge("cluster.health." + dead + ".alive").Value(); got != 0 {
		t.Fatal("probes did not declare the killed node down")
	}

	// Phase B: during the outage. Every fetch must still succeed, only
	// the dead node's keys may move, and each moves to its next-ranked
	// survivor (per-node request counters prove both).
	before := nodeRequestSnapshot(c)
	reroutesBefore := c.met.reroutes.Value()
	if errs := fetchAll(); errs != 0 {
		t.Fatalf("outage pass: %d failed fetches", errs)
	}
	after := nodeRequestSnapshot(c)
	if after[dead] != before[dead] {
		t.Fatalf("dead node admitted %d requests", after[dead]-before[dead])
	}
	survivors := []string{}
	for _, id := range ids {
		if id != dead {
			survivors = append(survivors, id)
		}
	}
	expect := map[string]int64{}
	for _, key := range keys {
		expect[Rank(key, survivors)[0]]++
	}
	for _, id := range survivors {
		if got := after[id] - before[id]; got != expect[id] {
			t.Fatalf("node %s served %d keys during the outage, rendezvous over survivors expects %d",
				id, got, expect[id])
		}
	}
	if got := c.met.reroutes.Value() - reroutesBefore; got != int64(deadKeys) {
		t.Fatalf("outage pass rerouted %d keys, want exactly the dead node's %d", got, deadKeys)
	}
	// The moved keys are cold on their new owners: the origin absorbs
	// exactly those, then the tier re-warms to full offload.
	errs, outageBP := offloadWindow(fetchAll)
	if errs != 0 {
		t.Fatalf("re-warm pass: %d failed fetches", errs)
	}
	if outageBP != 10000 {
		t.Fatalf("re-warmed outage offload = %d bp, want 10000", outageBP)
	}

	// Advance through the recovery at 15s; the probe pump needs the
	// 500ms cooldown plus two clean sweeps to re-admit the node.
	clock.RunUntil(17 * time.Second)
	if got := reg.Gauge("cluster.health." + dead + ".alive").Value(); got != 1 {
		t.Fatal("probes did not re-admit the recovered node")
	}
	if got := reg.Counter("cluster.health.down_transitions").Value(); got != 1 {
		t.Fatalf("down_transitions = %d, want 1", got)
	}
	if got := reg.Counter("cluster.health.up_transitions").Value(); got != 1 {
		t.Fatalf("up_transitions = %d, want 1", got)
	}

	// Phase C: the recovered node owns its keys again — cold, because a
	// crash dropped its cache — then offload returns to the pre-outage
	// value.
	before = nodeRequestSnapshot(c)
	if errs := fetchAll(); errs != 0 {
		t.Fatalf("post-recovery pass: %d failed fetches", errs)
	}
	after = nodeRequestSnapshot(c)
	if got := after[dead] - before[dead]; got != int64(deadKeys) {
		t.Fatalf("recovered node served %d keys, want its %d back", got, deadKeys)
	}
	errs, finalBP := offloadWindow(fetchAll)
	if errs != 0 {
		t.Fatalf("final pass: %d failed fetches", errs)
	}
	if finalBP != warmBP {
		t.Fatalf("post-recovery offload = %d bp, want pre-outage %d", finalBP, warmBP)
	}
}
