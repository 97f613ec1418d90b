package vet

import (
	"go/token"
	"testing"
)

// runSource type-checks a one-file module holding src at the
// module-relative path and returns the analyzer's findings.
func runSource(t *testing.T, a *analyzer, path, src string) []diagnostic {
	t.Helper()
	m, err := loadModuleSource(map[string][]byte{path: []byte(src)})
	if err != nil {
		t.Fatal(err)
	}
	return runModule(m, []*analyzer{a})
}

func TestErrTaxonomyScope(t *testing.T) {
	const src = `package x

import "errors"

func f() error { return errors.New("ad hoc") }
`
	if ds := runSource(t, errTaxonomy, "internal/transport/x.go", src); len(ds) != 1 {
		t.Errorf("transport ad-hoc error not flagged: %v", ds)
	}
	// Outside the taxonomy spans the same code is fine.
	if ds := runSource(t, errTaxonomy, "internal/media/x.go", src); len(ds) != 0 {
		t.Errorf("non-taxonomy package flagged: %v", ds)
	}
}

func TestDiagnosticString(t *testing.T) {
	d := diagnostic{
		Check:   "errtaxonomy",
		Pos:     token.Position{Filename: "internal/dash/mpd.go", Line: 10, Column: 3},
		Message: "boom",
	}
	if got, want := d.String(), "internal/dash/mpd.go:10:3: [errtaxonomy] boom"; got != want {
		t.Errorf("String() = %q, want %q", got, want)
	}
}
