// Package vet is Sperke's domain-aware static-analysis framework: a
// pure-stdlib analyzer suite over one go/types load of the whole module
// (a source-order importer, no go/packages — see typed.go).
//
// It keeps only the checkers that catch a defect no test fails:
//
//   - errtaxonomy: the delivery path wraps causes with %w and returns
//     typed sentinels. Turning the %w in dash.parseMPD's XML error
//     into %v fails no test;
//   - obsdiscipline: metrics instruments and wall clocks come from the
//     obs constructors, never struct literals. A dash.Server built on
//     &obs.Wall{} in place of obs.NewWall() fails no test.
//
// Determinism, degrees vs radians, context threading and lock scope are
// guarded by tests, not checkers: TestRunAllGolden and
// TestRerunsAreByteIdentical, the sphere and hmp round trips, the
// cancellation tests in dash, serve and cluster, and the 10 s bounds on
// the serve and cluster waits a lock-held wait would hang
// (EXPERIMENTS.md E36 has the mutant table behind that split).
//
// One rule is a test, not a checker: TestEveryExportHasACaller
// type-checks the module with the nested bench/ module as a second root,
// and then every test file, and fails on each exported package-level
// name or method of an exported type in internal/* that nothing outside
// its package references: not shipped code (cmd/, examples/ and bench/
// included), not another package's tests, not the package's own _test
// package. A type also counts when another package holds a value of it.
// Methods that satisfy an interface (or are named String, Error, Unwrap
// or Is) and Err* vars of an error type are exempt. The checkers' load
// does not read bench/.
//
// The checkers run as TestWholeTreeIsCleanTyped, one failure line
// "path:line:col: [check] message" per finding: `go test ./internal/vet`,
// and `GOARCH=386 go test ./internal/vet` for the files a 386 build
// compiles. A new checker is an analyzer with a CheckModule hook, listed
// in analyzers, with true-positive and clean golden fixtures under
// testdata/<name>/ (see golden_test.go), and a mutant of shipped code
// that it reports and no test fails.
package vet

import (
	"fmt"
	"go/ast"
	"go/token"
	"path"
	"sort"
)

// diagnostic is one finding, anchored to a source position. Pos.Filename
// is the module-relative slash path of the offending file.
type diagnostic struct {
	Check   string
	Pos     token.Position
	Message string
}

// String formats the diagnostic as the tests report it.
func (d diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: [%s] %s", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Check, d.Message)
}

// file is one parsed source file plus the module-relative context the
// domain checkers key off.
type file struct {
	// Path is module-relative and slash-separated, e.g.
	// "internal/sim/sim.go".
	Path string
	Fset *token.FileSet
	AST  *ast.File
}

// dir returns the file's module-relative directory.
func (f *file) dir() string { return path.Dir(f.Path) }

// diag builds a diagnostic for this file at pos.
func (f *file) diag(check string, pos token.Pos, format string, args ...any) diagnostic {
	p := f.Fset.Position(pos)
	p.Filename = f.Path
	return diagnostic{Check: check, Pos: p, Message: fmt.Sprintf(format, args...)}
}

// analyzer is one domain check: a pass over the whole type-resolved
// module. Checkers that reason about one file at a time walk each
// package's Files from inside the hook; the rest follow facts across
// package boundaries.
type analyzer struct {
	Name        string
	CheckModule func(*module) []diagnostic
}

// analyzers is the full checker suite in stable order.
var analyzers = []*analyzer{errTaxonomy, obsDiscipline}

// runModule runs the checkers over the type-resolved module and returns
// their findings sorted by position, then checker name.
func runModule(m *module, checkers []*analyzer) []diagnostic {
	var out []diagnostic
	for _, a := range checkers {
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
