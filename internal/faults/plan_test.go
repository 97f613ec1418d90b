package faults

import (
	"strings"
	"testing"
	"time"

	"sperke/internal/netem"
	"sperke/internal/sim"
)

func TestParseSpecRoundTrip(t *testing.T) {
	spec := "outage:wifi:10s:2s,cliff:lte:5s:3s:500k,loss:*:20s:5s:0.3,stall:wifi:8s:1s"
	plan := MustParse(spec)
	if len(plan.Events) != 4 {
		t.Fatalf("parsed %d events, want 4", len(plan.Events))
	}
	e := plan.Events[1]
	if e.Kind != kindCliff || e.Path != "lte" || e.At != 5*time.Second ||
		e.Duration != 3*time.Second || e.BPS != 500e3 {
		t.Fatalf("cliff event parsed wrong: %+v", e)
	}
}

func TestParseRejectsGarbage(t *testing.T) {
	for _, spec := range []string{
		"",
		"outage:wifi:10s",                  // missing duration
		"melt:wifi:0:1s",                   // unknown kind
		"cliff:wifi:0:1s",                  // cliff without rate
		"loss:wifi:0:1s",                   // loss without probability
		"loss:wifi:0:1s:1.5",               // loss out of range
		"outage:wifi:0:1s:extra",           // stray parameter
		"outage:wifi:bogus:1s",             // bad time
		"outage:wifi:0:0",                  // zero duration
		"loss:w:0:5s:0.2,loss:w:2s:5s:0.3", // overlapping loss bursts
	} {
		if _, err := Parse(spec); err == nil {
			t.Fatalf("Parse(%q) accepted garbage", spec)
		}
	}
}

func TestKindStringsCoverEveryKind(t *testing.T) {
	for _, k := range sortedKinds() {
		if s := k.String(); strings.HasPrefix(s, "kind(") {
			t.Fatalf("kind %d has no name", int(k))
		}
	}
}

func TestApplyOutageBlacksOutPath(t *testing.T) {
	clock := sim.NewClock(7)
	wifi := netem.NewPath(clock, "wifi", netem.Constant(8e6), 0, 0)
	plan := MustParse("outage:wifi:1s:2s")
	if err := plan.Apply(clock, wifi); err != nil {
		t.Fatal(err)
	}
	if !wifi.InOutage(1500 * time.Millisecond) {
		t.Fatal("outage window not registered on the path")
	}
	// A transfer already in service stalls through the window (trace
	// clamp), one submitted inside it defers (outage semantics).
	var early, mid netem.Delivery
	wifi.Transfer(1.5e6, netem.Reliable, func(d netem.Delivery) { early = d })
	clock.Schedule(1500*time.Millisecond, func() {
		wifi.Transfer(1e6, netem.Reliable, func(d netem.Delivery) { mid = d })
	})
	clock.Run()
	// 12 Mbit at 8 Mbit/s: 8 Mbit in the first second, stall 1s..3s,
	// remaining 4 Mbit by 3.5s.
	if early.Done != 3500*time.Millisecond {
		t.Fatalf("spanning transfer Done = %v, want 3.5s", early.Done)
	}
	if mid.Service < 3500*time.Millisecond {
		t.Fatalf("mid-outage transfer served at %v, inside the blackout", mid.Service)
	}
}

func TestApplyCliffSlowsPath(t *testing.T) {
	clock := sim.NewClock(7)
	lte := netem.NewPath(clock, "lte", netem.Constant(8e6), 0, 0)
	MustParse("cliff:lte:0:10s:1M").Apply(clock, lte)
	var d netem.Delivery
	lte.Transfer(1e6, netem.Reliable, func(x netem.Delivery) { d = x })
	clock.Run()
	// 8 Mbit at the 1 Mbit/s cliff rate = 8s.
	if d.Done != 8*time.Second {
		t.Fatalf("Done = %v, want 8s under the cliff", d.Done)
	}
}

func TestApplyLossBurstRaisesAndRestoresLoss(t *testing.T) {
	clock := sim.NewClock(7)
	lte := netem.NewPath(clock, "lte", netem.Constant(8e6), 0, 0.01)
	MustParse("loss:lte:1s:2s:0.5").Apply(clock, lte)
	samples := map[time.Duration]float64{}
	for _, at := range []time.Duration{0, 1500 * time.Millisecond, 4 * time.Second} {
		at := at
		clock.Schedule(at, func() { samples[at] = lte.Loss })
	}
	clock.Run()
	if samples[0] != 0.01 {
		t.Fatalf("loss before burst = %v, want 0.01", samples[0])
	}
	if samples[1500*time.Millisecond] != 0.5 {
		t.Fatalf("loss during burst = %v, want 0.5", samples[1500*time.Millisecond])
	}
	if samples[4*time.Second] != 0.01 {
		t.Fatalf("loss after burst = %v, want restored 0.01", samples[4*time.Second])
	}
}

func TestApplyStallFreezesPathAtEventTime(t *testing.T) {
	clock := sim.NewClock(7)
	wifi := netem.NewPath(clock, "wifi", netem.Constant(8e6), 0, 0)
	MustParse("stall:wifi:1s:2s").Apply(clock, wifi)
	var d netem.Delivery
	clock.Schedule(time.Second, func() {
		wifi.Transfer(1e6, netem.Reliable, func(x netem.Delivery) { d = x })
	})
	clock.Run()
	if d.Service != 3*time.Second {
		t.Fatalf("Service = %v, want 3s (1s event + 2s stall)", d.Service)
	}
}

func TestApplyWildcardHitsEveryPath(t *testing.T) {
	clock := sim.NewClock(7)
	wifi := netem.NewPath(clock, "wifi", netem.Constant(8e6), 0, 0)
	lte := netem.NewPath(clock, "lte", netem.Constant(8e6), 0, 0)
	MustParse("outage:*:0:1s").Apply(clock, wifi, lte)
	if !wifi.InOutage(0) || !lte.InOutage(0) {
		t.Fatal("wildcard outage missed a path")
	}
}

// fakeNodeTarget records kill/recover calls with the virtual time they
// fired at.
type fakeNodeTarget struct {
	names []string
	clock *sim.Clock
	log   []string
}

func (f *fakeNodeTarget) NodeNames() []string { return f.names }
func (f *fakeNodeTarget) KillNode(name string) {
	f.log = append(f.log, "kill:"+name+"@"+f.clock.Now().String())
}
func (f *fakeNodeTarget) RecoverNode(name string) {
	f.log = append(f.log, "recover:"+name+"@"+f.clock.Now().String())
}

func TestParseNodeOutageRoundTrip(t *testing.T) {
	spec := "node:edge-1:10s:5s"
	plan := MustParse(spec)
	e := plan.Events[0]
	if e.Kind != kindNodeOutage || e.Path != "edge-1" ||
		e.At != 10*time.Second || e.Duration != 5*time.Second {
		t.Fatalf("node event parsed wrong: %+v", e)
	}
	if _, err := Parse("node:edge-1:10s:5s:extra"); err == nil {
		t.Fatal("node event with a stray parameter accepted")
	}
}

func TestApplyNodesSchedulesKillAndRecover(t *testing.T) {
	clock := sim.NewClock(7)
	target := &fakeNodeTarget{names: []string{"edge-0", "edge-1"}, clock: clock}
	if err := MustParse("node:edge-1:10s:5s").ApplyNodes(clock, target); err != nil {
		t.Fatal(err)
	}
	clock.RunUntil(12 * time.Second)
	if len(target.log) != 1 || target.log[0] != "kill:edge-1@10s" {
		t.Fatalf("mid-outage log = %v, want the kill alone", target.log)
	}
	clock.RunUntil(20 * time.Second)
	want := []string{"kill:edge-1@10s", "recover:edge-1@15s"}
	if len(target.log) != 2 || target.log[0] != want[0] || target.log[1] != want[1] {
		t.Fatalf("log = %v, want %v", target.log, want)
	}
}

func TestApplyNodesWildcardHitsEveryNode(t *testing.T) {
	clock := sim.NewClock(7)
	target := &fakeNodeTarget{names: []string{"edge-0", "edge-1"}, clock: clock}
	if err := MustParse("node:*:1s:1s").ApplyNodes(clock, target); err != nil {
		t.Fatal(err)
	}
	clock.RunUntil(3 * time.Second)
	if len(target.log) != 4 {
		t.Fatalf("wildcard produced %d calls, want kill+recover per node: %v", len(target.log), target.log)
	}
}

func TestApplyNodesRejectsUnknownNode(t *testing.T) {
	clock := sim.NewClock(7)
	target := &fakeNodeTarget{names: []string{"edge-0"}, clock: clock}
	if err := MustParse("node:edge-9:1s:1s").ApplyNodes(clock, target); err == nil {
		t.Fatal("ApplyNodes armed an event against a node that does not exist")
	}
}

func TestApplySkipsNodeEventsAndApplyNodesSkipsPathEvents(t *testing.T) {
	clock := sim.NewClock(7)
	wifi := netem.NewPath(clock, "wifi", netem.Constant(8e6), 0, 0)
	target := &fakeNodeTarget{names: []string{"edge-0"}, clock: clock}
	// One plan scripting both domains: each Apply variant arms only its
	// own kinds and ignores the other's without erroring.
	plan := MustParse("outage:wifi:1s:1s,node:edge-0:2s:1s")
	if err := plan.Apply(clock, wifi); err != nil {
		t.Fatalf("Apply tripped over the node event: %v", err)
	}
	if err := plan.ApplyNodes(clock, target); err != nil {
		t.Fatalf("ApplyNodes tripped over the outage event: %v", err)
	}
	clock.RunUntil(5 * time.Second)
	if !wifi.InOutage(1500 * time.Millisecond) {
		t.Fatal("outage event not armed")
	}
	if len(target.log) != 2 {
		t.Fatalf("node event not armed: %v", target.log)
	}
}

func TestApplyIsDeterministic(t *testing.T) {
	run := func() []time.Duration {
		clock := sim.NewClock(99)
		p := netem.NewPath(clock, "lte", netem.Constant(8e6), 0, 0)
		MustParse("loss:lte:0:10s:0.4").Apply(clock, p)
		var done []time.Duration
		for i := 0; i < 20; i++ {
			// Staggered submissions so every transfer starts inside the
			// burst window (loss is sampled at submission time).
			clock.Schedule(time.Duration(i)*300*time.Millisecond, func() {
				p.Transfer(2e5, netem.BestEffort, func(d netem.Delivery) {
					if d.OK {
						done = append(done, d.Done)
					}
				})
			})
		}
		clock.Run()
		return done
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("runs differ: %d vs %d survivors", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("delivery %d at %v vs %v", i, a[i], b[i])
		}
	}
	if len(a) == 20 || len(a) == 0 {
		t.Fatalf("0.4 loss should drop some of 20 transfers, kept %d", len(a))
	}
}
