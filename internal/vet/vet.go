// Package vet is Sperke's domain-aware static-analysis framework: a
// pure-stdlib analyzer suite over one go/types load of the whole module
// (a source-order importer, no go/packages — see typed.go) that turns
// the repo's prose invariants into machine-checked CI gates.
//
// The invariants no generic linter knows about:
//
//   - experiments are pure functions of their seed — deterministic
//     packages must not read the wall clock or the global math/rand
//     state, directly or laundered through helpers in other packages
//     (checker clockhygiene, whose pass is the interprocedural taint
//     walk in taint.go), and must not let map iteration order leak into
//     rendered output (checker maporder);
//   - spherical geometry keeps degrees at API boundaries and radians
//     inside math/trig calls (checker unitsafety);
//   - the delivery path returns its typed error taxonomy, wrapping
//     causes with %w (checker errtaxonomy);
//   - metrics instruments flow through the nil-safe obs.Registry,
//     never ad-hoc struct literals (checker obsdiscipline);
//   - contexts thread end-to-end on the delivery path (checker
//     ctxflow), and nothing blocks while a sync mutex is held (checker
//     lockscope).
//
// Run the suite with `go run ./cmd/sperke-vet ./...`. The one waiver is
// a checker's function-keyed allowlist ("dir:Func" / "dir:Type.Method"):
// a named seam is exempt from its rule, and the taint pass treats the
// clock seams as barriers. A new checker is an Analyzer with a
// CheckModule hook, registered in Analyzers, with true-positive and
// clean golden fixtures under testdata/<name>/ (see golden_test.go).
package vet

import (
	"fmt"
	"go/ast"
	"go/token"
	"path"
	"sort"
	"strings"
)

// Diagnostic is one finding, anchored to a source position. Pos.Filename
// is the module-relative slash path of the offending file.
type Diagnostic struct {
	Check   string
	Pos     token.Position
	Message string
}

// String formats the diagnostic the way the CLI prints it.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: [%s] %s", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Check, d.Message)
}

// File is one parsed source file plus the module-relative context the
// domain checkers key off.
type File struct {
	// Path is module-relative and slash-separated, e.g.
	// "internal/sim/sim.go".
	Path string
	Fset *token.FileSet
	AST  *ast.File
}

// Test reports whether the file is a _test.go file. Every shipped
// checker skips tests: they may use wall clocks and ad-hoc errors
// freely.
func (f *File) Test() bool { return strings.HasSuffix(f.Path, "_test.go") }

// Dir returns the file's module-relative directory.
func (f *File) Dir() string { return path.Dir(f.Path) }

// diag builds a Diagnostic for this file at pos.
func (f *File) diag(check string, pos token.Pos, format string, args ...any) Diagnostic {
	p := f.Fset.Position(pos)
	p.Filename = f.Path
	return Diagnostic{Check: check, Pos: p, Message: fmt.Sprintf(format, args...)}
}

// Analyzer is one domain check: a pass over the whole type-resolved
// module. Checkers that reason about one file at a time walk each
// package's Files from inside the hook; the rest follow facts across
// package boundaries.
type Analyzer struct {
	Name string
	// Doc is a one-line description shown by `sperke-vet -list`.
	Doc         string
	CheckModule func(*Module) []Diagnostic
}

// Analyzers returns the full checker suite in stable order.
func Analyzers() []*Analyzer {
	return []*Analyzer{
		ClockHygiene,
		UnitSafety,
		ErrTaxonomy,
		ObsDiscipline,
		MapOrder,
		CtxFlow,
		LockScope,
	}
}

// ByName resolves a subset of Analyzers from comma-separated names.
func ByName(names string) ([]*Analyzer, error) {
	if names == "" {
		return Analyzers(), nil
	}
	all := make(map[string]*Analyzer)
	for _, a := range Analyzers() {
		all[a.Name] = a
	}
	var out []*Analyzer
	for _, n := range strings.Split(names, ",") {
		n = strings.TrimSpace(n)
		if n == "" {
			continue
		}
		a, ok := all[n]
		if !ok {
			return nil, fmt.Errorf("vet: unknown checker %q", n)
		}
		out = append(out, a)
	}
	return out, nil
}

// RunModule runs the analyzers over the type-resolved module and returns
// their findings sorted by position, then checker name.
func RunModule(m *Module, analyzers []*Analyzer) []Diagnostic {
	var out []Diagnostic
	for _, a := range analyzers {
		out = append(out, a.CheckModule(m)...)
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Check < b.Check
	})
	return out
}
