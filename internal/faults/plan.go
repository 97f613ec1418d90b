// Package faults is Sperke's fault-injection framework: scriptable
// plans of timed network faults that drive netem paths, and an HTTP
// middleware that injects server-side failures into a dash.Server.
// Together they reproduce the degraded regimes the paper measures —
// flaky WiFi+LTE multipath (§3.3) and the constrained network
// conditions of Table 2 (§3.4) — as deterministic, replayable chaos
// that the resilience layer (dash retries, transport circuit breakers,
// live spatial fallback) is tested against.
package faults

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
	"time"

	"sperke/internal/netem"
	"sperke/internal/sim"
)

// kind is the category of one fault event.
type kind int

// Fault kinds.
const (
	// kindOutage blacks a path out: zero rate over the window, transfers
	// beginning inside it deferred (reliable) or lost (best-effort).
	kindOutage kind = iota
	// kindCliff caps a path's bandwidth at BPS over the window.
	kindCliff
	// kindLossBurst raises a path's loss rate to Loss over the window.
	kindLossBurst
	// kindStall freezes a path's queue for Duration starting at At.
	kindStall
	// kindNodeOutage crashes a named cluster node at At and restarts it
	// Duration later — the node-loss regime of the edge/origin tier.
	// Node events are armed with ApplyNodes against a nodeTarget; Apply
	// skips them (they name nodes, not netem paths).
	kindNodeOutage
)

var kindNames = map[kind]string{
	kindOutage:     "outage",
	kindCliff:      "cliff",
	kindLossBurst:  "loss",
	kindStall:      "stall",
	kindNodeOutage: "node",
}

func (k kind) String() string {
	if n, ok := kindNames[k]; ok {
		return n
	}
	return fmt.Sprintf("kind(%d)", int(k))
}

// event is one timed fault.
type event struct {
	Kind kind
	// Path names the target netem path; "*" (or empty) targets every
	// path the plan is applied to.
	Path string
	// At is when the fault begins; Duration how long it lasts.
	At       time.Duration
	Duration time.Duration
	// BPS is the capped rate during a kindCliff window.
	BPS float64
	// Loss is the loss probability during a kindLossBurst window.
	Loss float64
}

func (e event) matches(name string) bool {
	return e.Path == "" || e.Path == "*" || e.Path == name
}

// Plan is a script of fault events replayed against a set of paths.
// Plans are deterministic: applying the same plan to the same paths on
// the same clock seed reproduces the same chaos byte for byte.
type Plan struct {
	Events []event
}

// validate checks the plan is applicable: non-negative times, loss in
// [0,1), positive durations for windowed faults, and no overlapping
// loss bursts on one path (their restore events would race).
func (p *Plan) validate() error {
	for i, e := range p.Events {
		if e.At < 0 {
			return fmt.Errorf("faults: event %d starts at negative time %v", i, e.At)
		}
		if e.Duration <= 0 {
			return fmt.Errorf("faults: event %d has non-positive duration %v", i, e.Duration)
		}
		if e.Kind == kindLossBurst && (e.Loss < 0 || e.Loss >= 1) {
			return fmt.Errorf("faults: event %d loss %v out of [0,1)", i, e.Loss)
		}
		if e.Kind == kindCliff && e.BPS < 0 {
			return fmt.Errorf("faults: event %d negative cliff rate %v", i, e.BPS)
		}
		if e.Kind != kindLossBurst {
			continue
		}
		for j, o := range p.Events[:i] {
			if o.Kind == kindLossBurst && (o.matches(e.Path) || e.matches(o.Path)) &&
				e.At < o.At+o.Duration && o.At < e.At+e.Duration {
				return fmt.Errorf("faults: loss bursts %d and %d overlap on path %q", j, i, e.Path)
			}
		}
	}
	return nil
}

// Apply arms the plan against the given paths on the given clock.
// Rate-shaped faults (outages, cliffs) are carved into the paths'
// traces immediately so transfers already in service stall through
// them; loss bursts and stalls are scheduled as clock events. Apply
// must run before the clock advances past any event start.
func (p *Plan) Apply(clock *sim.Clock, paths ...*netem.Path) error {
	if err := p.validate(); err != nil {
		return err
	}
	for _, e := range p.Events {
		if e.Kind == kindNodeOutage {
			// Node outages target cluster nodes, not netem paths; arm
			// them against the cluster with ApplyNodes. Skipping (rather
			// than erroring) lets one plan script both domains.
			continue
		}
		matched := false
		for _, path := range paths {
			if !e.matches(path.Name) {
				continue
			}
			matched = true
			end := e.At + e.Duration
			switch e.Kind {
			case kindOutage:
				path.AddOutage(e.At, end)
				path.SetTrace(path.Trace().Clamp(e.At, end, 0))
			case kindCliff:
				path.SetTrace(path.Trace().Clamp(e.At, end, e.BPS))
			case kindLossBurst:
				path, loss := path, e.Loss
				clock.Schedule(e.At, func() {
					old := path.Loss
					path.Loss = loss
					clock.Schedule(end, func() { path.Loss = old })
				})
			case kindStall:
				path, d := path, e.Duration
				clock.Schedule(e.At, func() { path.Stall(d) })
			default:
				return fmt.Errorf("faults: unknown kind %v", e.Kind)
			}
		}
		if !matched {
			// A typo'd path name silently arming nothing is a chaos test
			// that tests nothing — surface it.
			return fmt.Errorf("faults: event %s:%s:%v matches none of the given paths",
				e.Kind, e.Path, e.At)
		}
	}
	return nil
}

// nodeTarget is the surface node-outage events drive: a component —
// canonically the edge/origin cluster — whose named nodes can crash
// and recover. KillNode and RecoverNode must tolerate repeated calls.
type nodeTarget interface {
	// NodeNames lists the target's node names, for eager validation of
	// the plan's node references.
	NodeNames() []string
	// KillNode crashes the named node; RecoverNode restarts it.
	KillNode(name string)
	RecoverNode(name string)
}

// ApplyNodes arms the plan's node-outage events against target on the
// given clock, reusing the same timed-event scheduler the netem kinds
// ride: KillNode fires at At, RecoverNode at At+Duration. Non-node
// events are skipped (arm those with Apply); a node event naming no
// node of the target is an error, mirroring Apply's unmatched-path
// check, and "*" (or empty) crashes every node.
func (p *Plan) ApplyNodes(clock *sim.Clock, target nodeTarget) error {
	if err := p.validate(); err != nil {
		return err
	}
	names := target.NodeNames()
	for _, e := range p.Events {
		if e.Kind != kindNodeOutage {
			continue
		}
		matched := false
		for _, name := range names {
			if !e.matches(name) {
				continue
			}
			matched = true
			name := name
			clock.Schedule(e.At, func() { target.KillNode(name) })
			clock.Schedule(e.At+e.Duration, func() { target.RecoverNode(name) })
		}
		if !matched {
			return fmt.Errorf("faults: node event %s:%s:%v matches none of the target's nodes",
				e.Kind, e.Path, e.At)
		}
	}
	return nil
}

// Parse builds a plan from its compact textual form, the scriptable
// format CLI flags and experiment configs use (the role `tc` scripts
// play in the paper's testbed):
//
//	"outage:wifi:10s:2s,cliff:lte:5s:3s:500k,loss:*:20s:5s:0.3,stall:wifi:8s:1s"
//	"node:edge-1:10s:5s"   // crash edge-1 at 10s, restart at 15s
//
// Each comma-separated event is kind:path:at:duration[:param]; at and
// duration use Go duration syntax ("0" allowed), cliff rates accept
// k/M/G suffixes in bits per second, loss is a probability. For "node"
// events the path field names a cluster node (ApplyNodes arms them).
func Parse(spec string) (*Plan, error) {
	if strings.TrimSpace(spec) == "" {
		return nil, fmt.Errorf("faults: empty plan spec")
	}
	plan := &Plan{}
	for _, part := range strings.Split(spec, ",") {
		part = strings.TrimSpace(part)
		fields := strings.Split(part, ":")
		if len(fields) < 4 {
			return nil, fmt.Errorf("faults: event %q is not kind:path:at:duration[:param]", part)
		}
		var e event
		found := false
		for k, n := range kindNames {
			if n == fields[0] {
				e.Kind, found = k, true
			}
		}
		if !found {
			return nil, fmt.Errorf("faults: unknown kind %q in %q", fields[0], part)
		}
		e.Path = fields[1]
		var err error
		if e.At, err = parseDur(fields[2]); err != nil {
			return nil, fmt.Errorf("faults: event %q: %w", part, err)
		}
		if e.Duration, err = parseDur(fields[3]); err != nil {
			return nil, fmt.Errorf("faults: event %q: %w", part, err)
		}
		switch {
		case e.Kind == kindCliff:
			if len(fields) != 5 {
				return nil, fmt.Errorf("faults: cliff %q needs a rate", part)
			}
			if e.BPS, err = netem.ParseRate(fields[4]); err != nil {
				return nil, fmt.Errorf("faults: event %q: %w", part, err)
			}
		case e.Kind == kindLossBurst:
			if len(fields) != 5 {
				return nil, fmt.Errorf("faults: loss %q needs a probability", part)
			}
			if e.Loss, err = strconv.ParseFloat(fields[4], 64); err != nil {
				return nil, fmt.Errorf("faults: event %q: %w", part, err)
			}
		case len(fields) != 4:
			return nil, fmt.Errorf("faults: event %q takes no parameter", part)
		}
		plan.Events = append(plan.Events, e)
	}
	if err := plan.validate(); err != nil {
		return nil, err
	}
	return plan, nil
}

// MustParse is Parse that panics on error, for literals in tests and
// experiment setups.
func MustParse(spec string) *Plan {
	p, err := Parse(spec)
	if err != nil {
		panic(err)
	}
	return p
}

// sortedKinds is used by tests to iterate kinds deterministically.
func sortedKinds() []kind {
	ks := make([]kind, 0, len(kindNames))
	for k := range kindNames {
		ks = append(ks, k)
	}
	sort.Slice(ks, func(i, j int) bool { return ks[i] < ks[j] })
	return ks
}

func parseDur(s string) (time.Duration, error) {
	if s == "0" {
		return 0, nil
	}
	return time.ParseDuration(s)
}

func formatDur(d time.Duration) string {
	if d == 0 {
		return "0"
	}
	return d.String()
}
