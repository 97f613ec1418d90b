package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// writeTestModule lays out a miniature module with one ctxflow
// violation and chdirs into it for the duration of the test (run()
// resolves the module from the working directory).
func writeTestModule(t *testing.T) {
	t.Helper()
	dir := t.TempDir()
	files := map[string]string{
		"go.mod": "module sperke\n\ngo 1.22\n",
		"internal/serve/bad.go": `package serve

import "context"

func refetch(get func(context.Context) error) error {
	return get(context.Background())
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
	if f.Check != "ctxflow" || f.Path != "internal/serve/bad.go" || f.Line != 6 || f.Col == 0 || f.Message == "" {
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
	if !strings.Contains(stdout.String(), "internal/serve/bad.go:6:") ||
		!strings.Contains(stdout.String(), "[ctxflow]") {
		t.Fatalf("finding not rendered:\n%s", stdout.String())
	}
	if !strings.Contains(stderr.String(), "typed load of") {
		t.Fatalf("typed load wall time not logged:\n%s", stderr.String())
	}

	// A target prefix that excludes the finding exits clean.
	stdout.Reset()
	stderr.Reset()
	if code := run([]string{"./internal/dash"}, &stdout, &stderr); code != 0 {
		t.Fatalf("filtered run exit = %d, want 0\n%s", code, stdout.String())
	}

	// Unknown checkers are a usage error.
	if code := run([]string{"-checks", "nope"}, &stdout, &stderr); code != 2 {
		t.Fatalf("unknown checker exit = %d, want 2", code)
	}
}

func TestRunList(t *testing.T) {
	var stdout, stderr strings.Builder
	if code := run([]string{"-list"}, &stdout, &stderr); code != 0 {
		t.Fatalf("-list exit = %d", code)
	}
	for _, name := range []string{"clockhygiene", "ctxflow", "lockscope", "maporder"} {
		if !strings.Contains(stdout.String(), name) {
			t.Fatalf("-list missing %s:\n%s", name, stdout.String())
		}
	}
}
