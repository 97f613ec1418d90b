package vet

import (
	"go/build"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"
)

// TestLoadModuleTypesWholeTree is the typed loader's smoke test: the
// real module type-checks end to end through the source-order importer,
// packages come out in dependency order, and lookups resolve.
func TestLoadModuleTypesWholeTree(t *testing.T) {
	root, err := moduleRoot(".")
	if err != nil {
		t.Fatal(err)
	}
	m, err := loadModule(root)
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
			if m.internal(imp.Path()) && !seen[imp.Path()] {
				t.Fatalf("package %s checked before its import %s", tp.Dir, imp.Path())
			}
		}
		seen[tp.ImportPath] = true
	}
	dash := m.byPath["sperke/internal/dash"]
	if dash == nil || dash.Dir != "internal/dash" {
		t.Fatalf("internal/dash not loaded: %+v", dash)
	}
	if dash.Pkg.Scope().Lookup("ChunkSource") == nil {
		t.Fatal("dash.ChunkSource not resolved")
	}
}

// TestLoadModuleFilesMatchGoList: the loader reads the files the go
// tool builds. For each platform (unix and not, 64- and 32-bit),
// moduleFiles selects exactly what `go list -f '{{.GoFiles}}' ./...`
// lists there, and with tests set exactly its TestGoFiles and
// XTestGoFiles: a //go:build line and a _GOOS or _GOARCH file-name
// suffix rule a file in or out as they do for a build, and a nested
// module (bench/) is not part of this one.
func TestLoadModuleFilesMatchGoList(t *testing.T) {
	goTool, err := exec.LookPath("go")
	if err != nil {
		t.Skip("no go tool on PATH to compare with")
	}
	root, err := moduleRoot(".")
	if err != nil {
		t.Fatal(err)
	}
	each := func(field string) string { return `{{range .` + field + `}}{{$dir}}/{{.}}{{"\n"}}{{end}}` }
	formats := map[bool]string{false: each("GoFiles"), true: each("TestGoFiles") + each("XTestGoFiles")}
	for _, p := range []struct{ goos, arch string }{{"linux", "amd64"}, {"linux", "386"}, {"windows", "amd64"}} {
		for _, tests := range []bool{false, true} {
			goos, arch := p.goos, p.arch
			cmd := exec.Command(goTool, "list", "-f", `{{$dir := .Dir}}`+formats[tests], "./...")
			cmd.Dir = root
			cmd.Env = append(os.Environ(), "GOOS="+goos, "GOARCH="+arch)
			out, err := cmd.Output()
			if err != nil {
				t.Fatalf("%s/%s: go list: %v", goos, arch, err)
			}
			var want []string
			for _, line := range strings.FieldsFunc(string(out), func(r rune) bool { return r == '\n' }) {
				rel, err := filepath.Rel(root, line)
				if err != nil {
					t.Fatal(err)
				}
				want = append(want, filepath.ToSlash(rel))
			}
			ctxt := build.Default
			ctxt.GOOS, ctxt.GOARCH = goos, arch
			got, err := moduleFiles(&ctxt, root, tests)
			if err != nil {
				t.Fatal(err)
			}
			slices.Sort(want)
			slices.Sort(got)
			if !slices.Equal(got, want) {
				t.Errorf("%s/%s, tests %v: loader reads %v\ngo list builds %v", goos, arch, tests, got, want)
			}
		}
	}
}

// TestWholeTreeIsCleanTyped is the checkers' gate: the full suite over
// the type-resolved real module reports zero findings, each failure one
// "path:line:col: [check] message" line. It logs how many packages the
// typed load read and how long the load took.
func TestWholeTreeIsCleanTyped(t *testing.T) {
	root, err := moduleRoot(".")
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	m, err := loadModule(root)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("typed load of %d packages in %v", len(m.Pkgs), time.Since(start).Round(time.Millisecond))
	for _, d := range runModule(m, analyzers) {
		t.Errorf("%s", d)
	}
}
