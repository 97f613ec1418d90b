package vet

import (
	"go/token"
	"testing"
)

// runSource type-checks a one-file module holding src at the
// module-relative path and returns the analyzer's findings.
func runSource(t *testing.T, a *Analyzer, path, src string) []Diagnostic {
	t.Helper()
	m, err := LoadModuleSource(map[string][]byte{path: []byte(src)})
	if err != nil {
		t.Fatal(err)
	}
	return RunModule(m, []*Analyzer{a})
}

func TestClockHygieneScopesAndAllowlist(t *testing.T) {
	const src = `package x

import "time"

func f() time.Time { return time.Now() }
`
	// Outside the deterministic spans: no findings.
	if ds := runSource(t, ClockHygiene, "internal/media/x.go", src); len(ds) != 0 {
		t.Errorf("non-deterministic package flagged: %v", ds)
	}
	// Inside: flagged.
	if ds := runSource(t, ClockHygiene, "internal/qoe/x.go", src); len(ds) != 1 {
		t.Errorf("deterministic package not flagged: %v", ds)
	}
	// Allowlisted seam (obs.NewWall).
	const seam = `package obs

import "time"

func NewWall() time.Time { return time.Now() }
`
	if ds := runSource(t, ClockHygiene, "internal/obs/x.go", seam); len(ds) != 0 {
		t.Errorf("allowlisted seam flagged: %v", ds)
	}
	// Test files are exempt everywhere.
	if ds := runSource(t, ClockHygiene, "internal/qoe/x_test.go", src); len(ds) != 0 {
		t.Errorf("test file flagged: %v", ds)
	}
}

func TestClockHygieneRenamedImport(t *testing.T) {
	const src = `package sim

import stdtime "time"

func f() stdtime.Time { return stdtime.Now() }
`
	if ds := runSource(t, ClockHygiene, "internal/sim/x.go", src); len(ds) != 1 {
		t.Errorf("renamed time import not tracked: %v", ds)
	}
}

func TestMapOrderSortEscapes(t *testing.T) {
	const sorted = `package abr

import "sort"

func keys(m map[int]int) []int {
	var out []int
	for k := range m {
		out = append(out, k)
	}
	sort.Ints(out)
	return out
}
`
	if ds := runSource(t, MapOrder, "internal/abr/x.go", sorted); len(ds) != 0 {
		t.Errorf("sorted-after loop flagged: %v", ds)
	}
	const sliceRange = `package abr

func sum(xs []int) int {
	var out []int
	for _, x := range xs {
		out = append(out, x)
	}
	return len(out)
}
`
	if ds := runSource(t, MapOrder, "internal/abr/x.go", sliceRange); len(ds) != 0 {
		t.Errorf("slice range flagged as map: %v", ds)
	}
	// Slice-of-maps indexing resolves to a map.
	const indexed = `package abr

func all(states []map[int]bool) []int {
	var out []int
	for k := range states[0] {
		out = append(out, k)
	}
	return out
}
`
	if ds := runSource(t, MapOrder, "internal/abr/x.go", indexed); len(ds) != 1 {
		t.Errorf("slice-of-maps index not resolved: %v", ds)
	}
}

func TestErrTaxonomyScope(t *testing.T) {
	const src = `package x

import "errors"

func f() error { return errors.New("ad hoc") }
`
	if ds := runSource(t, ErrTaxonomy, "internal/transport/x.go", src); len(ds) != 1 {
		t.Errorf("transport ad-hoc error not flagged: %v", ds)
	}
	// Outside the taxonomy spans the same code is fine.
	if ds := runSource(t, ErrTaxonomy, "internal/media/x.go", src); len(ds) != 0 {
		t.Errorf("non-taxonomy package flagged: %v", ds)
	}
}

func TestByName(t *testing.T) {
	as, err := ByName("clockhygiene, maporder")
	if err != nil || len(as) != 2 {
		t.Fatalf("ByName subset: %v, %v", as, err)
	}
	if _, err := ByName("nosuch"); err == nil {
		t.Fatal("ByName accepted an unknown checker")
	}
	if as, err := ByName(""); err != nil || len(as) != len(Analyzers()) {
		t.Fatalf("ByName default: %v, %v", as, err)
	}
}

func TestDiagnosticString(t *testing.T) {
	d := Diagnostic{
		Check:   "clockhygiene",
		Pos:     token.Position{Filename: "internal/sim/sim.go", Line: 10, Column: 3},
		Message: "boom",
	}
	if got, want := d.String(), "internal/sim/sim.go:10:3: [clockhygiene] boom"; got != want {
		t.Errorf("String() = %q, want %q", got, want)
	}
}
