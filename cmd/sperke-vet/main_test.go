package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// writeTestModule lays out a miniature module with one errtaxonomy
// violation and chdirs into it for the duration of the test (run()
// resolves the module from the working directory).
func writeTestModule(t *testing.T) {
	t.Helper()
	dir := t.TempDir()
	files := map[string]string{
		"go.mod": "module sperke\n\ngo 1.22\n",
		"internal/dash/bad.go": `package dash

import "errors"

func refetch() error {
	return errors.New("dash: refetch failed")
}
`,
	}
	for name, src := range files {
		p := filepath.Join(dir, name)
		if err := os.MkdirAll(filepath.Dir(p), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(p, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(dir); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { os.Chdir(wd) })
}

func TestRunJSONOutput(t *testing.T) {
	writeTestModule(t)
	var stdout, stderr strings.Builder
	code := run([]string{"-json", "./..."}, &stdout, &stderr)
	if code != 1 {
		t.Fatalf("exit code = %d, want 1\nstderr: %s", code, stderr.String())
	}
	var findings []jsonDiag
	if err := json.Unmarshal([]byte(stdout.String()), &findings); err != nil {
		t.Fatalf("output is not valid JSON: %v\n%s", err, stdout.String())
	}
	if len(findings) != 1 {
		t.Fatalf("findings = %d, want 1: %v", len(findings), findings)
	}
	f := findings[0]
	if f.Check != "errtaxonomy" || f.Path != "internal/dash/bad.go" || f.Line != 6 || f.Col == 0 || f.Message == "" {
		t.Fatalf("unexpected finding: %+v", f)
	}
}

func TestRunTextOutputAndExitCodes(t *testing.T) {
	writeTestModule(t)
	var stdout, stderr strings.Builder
	code := run([]string{"./..."}, &stdout, &stderr)
	if code != 1 {
		t.Fatalf("exit code = %d, want 1", code)
	}
	if !strings.Contains(stdout.String(), "internal/dash/bad.go:6:") ||
		!strings.Contains(stdout.String(), "[errtaxonomy]") {
		t.Fatalf("finding not rendered:\n%s", stdout.String())
	}
	if !strings.Contains(stderr.String(), "typed load of") {
		t.Fatalf("typed load wall time not logged:\n%s", stderr.String())
	}

	// A target prefix that excludes the finding exits clean.
	stdout.Reset()
	stderr.Reset()
	if code := run([]string{"./internal/serve"}, &stdout, &stderr); code != 0 {
		t.Fatalf("filtered run exit = %d, want 0\n%s", code, stdout.String())
	}

	// Unknown flags are a usage error.
	if code := run([]string{"-nope"}, &stdout, &stderr); code != 2 {
		t.Fatalf("unknown flag exit = %d, want 2", code)
	}
}

func TestRunList(t *testing.T) {
	var stdout, stderr strings.Builder
	if code := run([]string{"-list"}, &stdout, &stderr); code != 0 {
		t.Fatalf("-list exit = %d", code)
	}
	var names []string
	for _, line := range strings.Split(strings.TrimSpace(stdout.String()), "\n") {
		names = append(names, strings.Fields(line)[0])
	}
	if got := strings.Join(names, ","); got != "errtaxonomy,obsdiscipline" {
		t.Fatalf("-list names %s, want errtaxonomy,obsdiscipline:\n%s", got, stdout.String())
	}
}
