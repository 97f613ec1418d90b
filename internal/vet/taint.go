package vet

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// Interprocedural taint: which functions (transitively) read the wall
// clock or the globally-seeded math/rand state. A rule that only looked
// for direct mentions would let a one-line helper launder
// nondeterminism past it:
//
//	package timeutil                       // not a deterministic span
//	func Stamp() int64 { return time.Now().UnixNano() }
//
//	package core                           // deterministic
//	func tick() int64 { return timeutil.Stamp() }  // no time import
//
// The taint pass propagates "wall-clock tainted" / "global-rand
// tainted" facts along the static call graph to a fixed point, so
// clockhygiene flags the tick → Stamp call site — the point where taint
// crosses into a deterministic package — as well as every direct use
// inside one.
//
// Allowlisted seams (clockAllowlist) are taint barriers: obs.NewWall
// is the designated wall adapter, so calling it is not laundering.
// Calls through function values (clock fields, callbacks) have no
// static callee and do not propagate — the same injection seams the
// hygiene rules mandate are exactly the edges the analysis is meant to
// treat as clean.

// taintKind is a bitmask of nondeterminism sources.
type taintKind uint8

const (
	taintWall taintKind = 1 << iota
	taintRand
)

func (k taintKind) String() string {
	switch {
	case k&taintWall != 0 && k&taintRand != 0:
		return "wall-clock and global-rand"
	case k&taintRand != 0:
		return "global-rand"
	default:
		return "wall-clock"
	}
}

// taintFacts is the module's computed taint state.
type taintFacts struct {
	// tainted maps each module function to the nondeterminism it
	// (transitively) touches; absent means clean.
	tainted map[*types.Func]taintKind
	// edges lists each module function's static module-internal callees,
	// in source order per function.
	edges map[*types.Func][]*types.Func
}

// Taint computes (once) and returns the module's taint facts.
func (m *Module) Taint() *taintFacts {
	m.taintOnce.Do(func() { m.taintF = buildTaint(m) })
	return m.taintF
}

func buildTaint(m *Module) *taintFacts {
	tf := &taintFacts{
		tainted: make(map[*types.Func]taintKind),
		edges:   make(map[*types.Func][]*types.Func),
	}
	// Seed direct taint and record static call edges. Function literals
	// are attributed to their enclosing declaration: a closure that
	// reads the wall clock taints the function that builds it.
	eachFunc(m, nil, func(tp *TypedPackage, _ *File, _ string, fd *ast.FuncDecl) {
		fn := declFunc(tp.Info, fd)
		if fn == nil || clockAllowlist[typedFuncKey(m, fn)] {
			return // seams neither carry nor propagate taint
		}
		taintSites(m, tp.Info, fd,
			func(_ token.Pos, _ types.Object, k taintKind) { tf.tainted[fn] |= k },
			func(_ token.Pos, callee *types.Func) { tf.edges[fn] = append(tf.edges[fn], callee) })
	})
	// Propagate along call edges to a fixed point. The module's call
	// graph is small; a few passes settle it.
	for changed := true; changed; {
		changed = false
		for fn, callees := range tf.edges {
			for _, callee := range callees {
				if k := tf.tainted[callee]; k&^tf.tainted[fn] != 0 {
					tf.tainted[fn] |= k
					changed = true
				}
			}
		}
	}
	return tf
}

// taintSites walks root, calling use for every direct nondeterminism
// reference — anchored at the selector, so time.Now is reported where
// "time" is written, and a wall func leaked as a value (nowFunc:
// time.Now) counts too — and call for every static call into the
// module.
func taintSites(m *Module, info *types.Info, root ast.Node, use func(token.Pos, types.Object, taintKind), call func(token.Pos, *types.Func)) {
	ast.Inspect(root, func(n ast.Node) bool {
		var id *ast.Ident
		switch n := n.(type) {
		case *ast.CallExpr:
			if callee := calleeOf(info, n); callee != nil && callee.Pkg() != nil && m.Internal(callee.Pkg().Path()) {
				call(n.Pos(), callee)
			}
			return true
		case *ast.SelectorExpr:
			id = n.Sel
		case *ast.Ident:
			id = n
		default:
			return true
		}
		obj := info.Uses[id]
		if k := directTaint(obj); k != 0 {
			use(n.Pos(), obj, k)
			return false
		}
		return true
	})
}

// directTaint classifies one used object as a nondeterminism source:
// the time package's wall-clock reads, or package-level use of the
// globally-seeded math/rand API (constructors and types excepted).
func directTaint(obj types.Object) taintKind {
	if obj == nil || obj.Pkg() == nil {
		return 0
	}
	fn, ok := obj.(*types.Func)
	if !ok {
		return 0
	}
	sig, _ := fn.Type().(*types.Signature)
	if sig == nil || sig.Recv() != nil {
		return 0 // methods (e.g. *rand.Rand, time.Timer) are fine
	}
	switch fn.Pkg().Path() {
	case "time":
		if clockForbidden[fn.Name()] {
			return taintWall
		}
	case "math/rand", "math/rand/v2":
		if ast.IsExported(fn.Name()) && !randConstructors[fn.Name()] {
			return taintRand
		}
	}
	return 0
}

// taintDiagnostics is clockhygiene's pass. In every clock-disciplined
// span, outside the allowlisted seams, it flags each direct wall-clock
// or global-rand use, and each call whose callee lives outside those
// spans yet is (transitively) tainted — the exact spot where laundered
// nondeterminism crosses into code that must be a pure function of its
// seed. Tainted in-span callees are flagged at their own uses, so each
// launder is reported exactly once.
func taintDiagnostics(m *Module) []Diagnostic {
	tf := m.Taint()
	var out []Diagnostic
	eachDecl(m, clockSpans, clockAllowlist, func(tp *TypedPackage, f *File, name string, d ast.Decl) {
		taintSites(m, tp.Info, d,
			func(pos token.Pos, obj types.Object, k taintKind) {
				if k == taintRand {
					out = append(out, f.diag("clockhygiene", pos,
						"globally-seeded %s.%s in deterministic package %s (func %s): use rand.New(rand.NewSource(seed)) and thread the *rand.Rand through",
						obj.Pkg().Name(), obj.Name(), tp.Dir, name))
					return
				}
				out = append(out, f.diag("clockhygiene", pos,
					"%s.%s in deterministic package %s (func %s): inject a clock (sim.Clock or a Now func field) or allowlist the seam",
					obj.Pkg().Name(), obj.Name(), tp.Dir, name))
			},
			func(pos token.Pos, callee *types.Func) {
				k := tf.tainted[callee]
				if k == 0 || inSpan(m.DirOf(callee.Pkg().Path()), clockSpans) {
					return
				}
				out = append(out, f.diag("clockhygiene", pos,
					"call to %s launders %s use into deterministic package %s (func %s): thread an injected clock/rand through, or allowlist a named seam",
					calleeDisplay(callee), k, tp.Dir, name))
			})
	})
	return out
}

// calleeDisplay renders a cross-package callee as "pkg.Func" or
// "pkg.Type.Method" using the callee package's base name.
func calleeDisplay(fn *types.Func) string {
	p := fn.Pkg().Path()
	return p[strings.LastIndexByte(p, '/')+1:] + "." + typedDisplayName(fn)
}
