package vet

import (
	"flag"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite golden files under testdata/")

// fixtureDirective assigns a fixture file a fake module-relative path,
// since every checker keys off package location. It must be the first
// line:
//
//	//sperke:fixture path=internal/dash/bad.go
var fixtureDirective = regexp.MustCompile(`(?m)^//sperke:fixture path=(\S+)$`)

// TestGoldenFixtures runs every analyzer over its bad*.go/clean*.go
// fixtures under testdata/<name>/. Each fixture forms a module with the
// directory's other .go files (the stub packages such fixtures import).
func TestGoldenFixtures(t *testing.T) {
	for _, a := range analyzers {
		t.Run(a.Name, func(t *testing.T) {
			checkFixtures(t, a, filepath.Join("testdata", a.Name))
		})
	}
}

// checkFixtures is the one harness: it type-checks each fixture in dir
// with loadModuleSource and runs it through runModule. bad* fixtures
// must reproduce their .golden diagnostics exactly (and at least one),
// clean* fixtures must come back empty, and dir must hold both kinds.
func checkFixtures(t *testing.T, a *analyzer, dir string) {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatalf("checker %s has no fixture dir: %v", a.Name, err)
	}
	var fixtures, stubs []string
	for _, e := range entries {
		name := e.Name()
		switch {
		case e.IsDir() || !strings.HasSuffix(name, ".go"):
		case strings.HasPrefix(name, "bad") || strings.HasPrefix(name, "clean"):
			fixtures = append(fixtures, name)
		default:
			stubs = append(stubs, filepath.Join(dir, name))
		}
	}
	var sawBad, sawClean bool
	for _, name := range fixtures {
		got := runFixture(t, a, append([]string{filepath.Join(dir, name)}, stubs...))
		goldenPath := filepath.Join(dir, strings.TrimSuffix(name, ".go")+".golden")
		if *update {
			if got == "" {
				os.Remove(goldenPath)
			} else if err := os.WriteFile(goldenPath, []byte(got), 0o644); err != nil {
				t.Fatal(err)
			}
		}
		want := ""
		if b, err := os.ReadFile(goldenPath); err == nil {
			want = string(b)
		}
		if got != want {
			t.Errorf("%s: diagnostics mismatch\n--- got ---\n%s--- want ---\n%s", name, got, want)
		}
		if strings.HasPrefix(name, "bad") {
			sawBad = true
			if got == "" {
				t.Errorf("%s: true-positive fixture produced no diagnostics", name)
			}
		} else {
			sawClean = true
			if got != "" {
				t.Errorf("%s: clean fixture produced diagnostics:\n%s", name, got)
			}
		}
	}
	if !sawBad || !sawClean {
		t.Errorf("checker %s needs both a bad* and a clean* fixture in %s (bad=%v clean=%v)",
			a.Name, dir, sawBad, sawClean)
	}
}

// runFixture assembles the files into an in-memory module, each under
// its directive path, and returns the analyzer's findings, one
// formatted diagnostic per line.
func runFixture(t *testing.T, a *analyzer, files []string) string {
	t.Helper()
	srcs := make(map[string][]byte)
	for _, p := range files {
		src, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		m := fixtureDirective.FindSubmatch(src)
		if m == nil {
			t.Fatalf("%s: missing //sperke:fixture path=... directive", p)
		}
		srcs[string(m[1])] = src
	}
	if len(srcs) == 0 {
		t.Fatalf("%v: empty fixture module", files)
	}
	mod, err := loadModuleSource(srcs)
	if err != nil {
		t.Fatalf("%v: %v", files, err)
	}
	var sb strings.Builder
	for _, d := range runModule(mod, []*analyzer{a}) {
		sb.WriteString(d.String())
		sb.WriteByte('\n')
	}
	return sb.String()
}

// loadModuleSource type-checks an in-memory module from path → source
// mappings, under the real module path "sperke" so module-internal
// imports ("sperke/internal/...") resolve between the given files.
func loadModuleSource(srcs map[string][]byte) (*module, error) {
	fset := token.NewFileSet()
	files := make([]*file, 0, len(srcs))
	paths := make([]string, 0, len(srcs))
	for p := range srcs {
		paths = append(paths, p)
	}
	sort.Strings(paths)
	for _, p := range paths {
		f, err := parseShared(fset, srcs[p], p)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	return typeCheckModule("sperke", fset, files)
}
