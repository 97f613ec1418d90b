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

// Kind is the category of one fault event.
type Kind int

// Fault kinds.
const (
	// KindOutage blacks a path out: zero rate over the window, transfers
	// beginning inside it deferred (reliable) or lost (best-effort).
	KindOutage Kind = iota
	// KindCliff caps a path's bandwidth at BPS over the window.
	KindCliff
	// KindLossBurst raises a path's loss rate to Loss over the window.
	KindLossBurst
	// KindStall freezes a path's queue for Duration starting at At.
	KindStall
	// KindNodeOutage crashes a named cluster node at At and restarts it
	// Duration later — the node-loss regime of the edge/origin tier.
	// Node events are armed with ApplyNodes against a NodeTarget; Apply
	// skips them (they name nodes, not netem paths).
	KindNodeOutage
)

var kindNames = map[Kind]string{
	KindOutage:     "outage",
	KindCliff:      "cliff",
	KindLossBurst:  "loss",
	KindStall:      "stall",
	KindNodeOutage: "node",
}

func (k Kind) String() string {
	if n, ok := kindNames[k]; ok {
		return n
	}
	return fmt.Sprintf("kind(%d)", int(k))
}

// Event is one timed fault.
type Event struct {
	Kind Kind
	// Path names the target netem path; "*" (or empty) targets every
	// path the plan is applied to.
	Path string
	// At is when the fault begins; Duration how long it lasts.
	At       time.Duration
	Duration time.Duration
	// BPS is the capped rate during a KindCliff window.
	BPS float64
	// Loss is the loss probability during a KindLossBurst window.
	Loss float64
}

func (e Event) matches(name string) bool {
	return e.Path == "" || e.Path == "*" || e.Path == name
}

// NodeOutage builds a node-outage event: node crashes at `at` and
// restarts at `recoverAt`. Validate rejects recoverAt <= at (model a
// node that never returns with a recovery past the run's horizon).
func NodeOutage(node string, at, recoverAt time.Duration) Event {
	return Event{Kind: KindNodeOutage, Path: node, At: at, Duration: recoverAt - at}
}

// Plan is a script of fault events replayed against a set of paths.
// Plans are deterministic: applying the same plan to the same paths on
// the same clock seed reproduces the same chaos byte for byte.
type Plan struct {
	Events []Event
}

// Add appends an event and returns the plan for chaining.
func (p *Plan) Add(e Event) *Plan {
	p.Events = append(p.Events, e)
	return p
}

// Validate checks the plan is applicable: non-negative times, loss in
// [0,1), positive durations for windowed faults, and no overlapping
// loss bursts on one path (their restore events would race).
func (p *Plan) Validate() error {
	for i, e := range p.Events {
		if e.At < 0 {
			return fmt.Errorf("faults: event %d starts at negative time %v", i, e.At)
		}
		if e.Duration <= 0 {
			return fmt.Errorf("faults: event %d has non-positive duration %v", i, e.Duration)
		}
		if e.Kind == KindLossBurst && (e.Loss < 0 || e.Loss >= 1) {
			return fmt.Errorf("faults: event %d loss %v out of [0,1)", i, e.Loss)
		}
		if e.Kind == KindCliff && e.BPS < 0 {
			return fmt.Errorf("faults: event %d negative cliff rate %v", i, e.BPS)
		}
		if e.Kind != KindLossBurst {
			continue
		}
		for j, o := range p.Events[:i] {
			if o.Kind == KindLossBurst && (o.matches(e.Path) || e.matches(o.Path)) &&
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
	if err := p.Validate(); err != nil {
		return err
	}
	for _, e := range p.Events {
		if e.Kind == KindNodeOutage {
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
			case KindOutage:
				path.AddOutage(e.At, end)
				path.SetTrace(path.Trace().Clamp(e.At, end, 0))
			case KindCliff:
				path.SetTrace(path.Trace().Clamp(e.At, end, e.BPS))
			case KindLossBurst:
				path, loss := path, e.Loss
				clock.Schedule(e.At, func() {
					old := path.Loss
					path.Loss = loss
					clock.Schedule(end, func() { path.Loss = old })
				})
			case KindStall:
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

// NodeTarget is the surface node-outage events drive: a component —
// canonically the edge/origin cluster — whose named nodes can crash
// and recover. KillNode and RecoverNode must tolerate repeated calls.
type NodeTarget interface {
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
func (p *Plan) ApplyNodes(clock *sim.Clock, target NodeTarget) error {
	if err := p.Validate(); err != nil {
		return err
	}
	names := target.NodeNames()
	for _, e := range p.Events {
		if e.Kind != KindNodeOutage {
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
		var e Event
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
		case e.Kind == KindCliff:
			if len(fields) != 5 {
				return nil, fmt.Errorf("faults: cliff %q needs a rate", part)
			}
			if e.BPS, err = netem.ParseRate(fields[4]); err != nil {
				return nil, fmt.Errorf("faults: event %q: %w", part, err)
			}
		case e.Kind == KindLossBurst:
			if len(fields) != 5 {
				return nil, fmt.Errorf("faults: loss %q needs a probability", part)
			}
			if e.Loss, err = strconv.ParseFloat(fields[4], 64); err != nil {
				return nil, fmt.Errorf("faults: event %q: %w", part, err)
			}
		case len(fields) != 4:
			return nil, fmt.Errorf("faults: event %q takes no parameter", part)
		}
		plan.Add(e)
	}
	if err := plan.Validate(); err != nil {
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

// Spec renders the plan back into Parse's format.
func (p *Plan) Spec() string {
	parts := make([]string, len(p.Events))
	for i, e := range p.Events {
		path := e.Path
		if path == "" {
			path = "*"
		}
		s := fmt.Sprintf("%s:%s:%s:%s", e.Kind, path, formatDur(e.At), formatDur(e.Duration))
		switch e.Kind {
		case KindCliff:
			s += ":" + netem.FormatRate(e.BPS)
		case KindLossBurst:
			s += ":" + strconv.FormatFloat(e.Loss, 'f', -1, 64)
		}
		parts[i] = s
	}
	return strings.Join(parts, ",")
}

// Horizon returns the end time of the last fault in the plan — how long
// a chaos run must last to replay everything.
func (p *Plan) Horizon() time.Duration {
	var h time.Duration
	for _, e := range p.Events {
		if end := e.At + e.Duration; end > h {
			h = end
		}
	}
	return h
}

// sortedKinds is used by tests to iterate kinds deterministically.
func sortedKinds() []Kind {
	ks := make([]Kind, 0, len(kindNames))
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
