package vet

import (
	"strings"
	"testing"
)

// TestLoadModuleTypesWholeTree is the typed loader's smoke test: the
// real module type-checks end to end through the source-order importer,
// packages come out in dependency order, and lookups resolve.
func TestLoadModuleTypesWholeTree(t *testing.T) {
	root, err := ModuleRoot(".")
	if err != nil {
		t.Fatal(err)
	}
	m, err := LoadModule(root)
	if err != nil {
		t.Fatal(err)
	}
	if m.Path != "sperke" {
		t.Fatalf("module path = %q, want sperke", m.Path)
	}
	if len(m.Pkgs) < 20 {
		t.Fatalf("typed load found only %d packages", len(m.Pkgs))
	}
	seen := make(map[string]bool, len(m.Pkgs))
	for _, tp := range m.Pkgs {
		if tp.Pkg == nil || tp.Info == nil {
			t.Fatalf("package %s missing types", tp.Dir)
		}
		// Dependency order: every module-internal import of tp must
		// already have been checked.
		for _, imp := range tp.Pkg.Imports() {
			if m.Internal(imp.Path()) && !seen[imp.Path()] {
				t.Fatalf("package %s checked before its import %s", tp.Dir, imp.Path())
			}
		}
		seen[tp.ImportPath] = true
	}
	dash := m.ByDir("internal/dash")
	if dash == nil {
		t.Fatal("internal/dash not loaded")
	}
	if m.ByImportPath("sperke/internal/dash") != dash {
		t.Fatal("ByImportPath and ByDir disagree on internal/dash")
	}
	if dash.Pkg.Scope().Lookup("ChunkSource") == nil {
		t.Fatal("dash.ChunkSource not resolved")
	}
}

// TestTaintPropagatesAcrossPackages pins the interprocedural pass in
// isolation: a two-hop launder taints every function on the chain, and
// the allowlisted seam is a barrier that keeps taint from spreading
// through it.
func TestTaintPropagatesAcrossPackages(t *testing.T) {
	m, err := LoadModuleSource(map[string][]byte{
		"internal/timeutil/t.go": []byte(`package timeutil
import "time"
func NowNanos() int64 { return time.Now().UnixNano() }
`),
		"internal/xutil/x.go": []byte(`package xutil
import "sperke/internal/timeutil"
func Stamp() int64 { return timeutil.NowNanos() }
`),
		"internal/obs/wall.go": []byte(`package obs
import "time"
func NewWall() int64 { return time.Now().UnixNano() }
`),
		"internal/core/c.go": []byte(`package core
import (
	"sperke/internal/obs"
	"sperke/internal/xutil"
)
func tick() int64 { return xutil.Stamp() }
func seam() int64 { return obs.NewWall() }
`),
	})
	if err != nil {
		t.Fatal(err)
	}
	tf := m.Taint()
	wantTainted := map[string]taintKind{
		"internal/timeutil:NowNanos": taintWall,
		"internal/xutil:Stamp":       taintWall,
		"internal/core:tick":         taintWall,
	}
	got := make(map[string]taintKind)
	for fn, k := range tf.tainted {
		got[typedFuncKey(m, fn)] = k
	}
	for key, k := range wantTainted {
		if got[key] != k {
			t.Errorf("%s: taint = %v, want %v", key, got[key], k)
		}
	}
	// obs.NewWall is the allowlisted wall seam: it must not carry taint,
	// and calling it must not taint the caller.
	for _, key := range []string{"internal/obs:NewWall", "internal/core:seam"} {
		if k, ok := got[key]; ok {
			t.Errorf("%s: tainted %v through an allowlisted seam", key, k)
		}
	}

	diags := taintDiagnostics(m)
	if len(diags) != 1 {
		t.Fatalf("taint diagnostics = %d, want exactly 1 (the core boundary call):\n%v", len(diags), diags)
	}
	d := diags[0]
	if d.Pos.Filename != "internal/core/c.go" || !strings.Contains(d.Message, "xutil.Stamp") {
		t.Fatalf("unexpected boundary diagnostic: %s", d)
	}
}

// TestWholeTreeIsCleanTyped is the acceptance gate: the full
// seven-checker suite over the type-resolved real module reports zero
// findings.
func TestWholeTreeIsCleanTyped(t *testing.T) {
	root, err := ModuleRoot(".")
	if err != nil {
		t.Fatal(err)
	}
	m, err := LoadModule(root)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range RunModule(m, Analyzers()) {
		t.Errorf("%s", d)
	}
}
