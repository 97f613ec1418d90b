// Command sperke-vet runs Sperke's domain-aware static-analysis suite
// (package internal/vet) over the module tree:
//
//	go run ./cmd/sperke-vet ./...
//	go run ./cmd/sperke-vet -json ./internal/dash
//	go run ./cmd/sperke-vet -list
//
// The suite is type-resolved: the whole module is parsed and
// type-checked (pure stdlib, see internal/vet/typed.go), and every
// checker is one pass over that load.
//
// It exits 0 when clean, 1 when it finds violations (one
// "path:line:col: [check] message" line per finding, or a JSON array
// under -json), and 2 on usage, parse, or type-check errors.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"time"

	"sperke/internal/vet"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// jsonDiag is the stable -json schema, one object per finding.
type jsonDiag struct {
	Check   string `json:"check"`
	Path    string `json:"path"`
	Line    int    `json:"line"`
	Col     int    `json:"col"`
	Message string `json:"message"`
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("sperke-vet", flag.ContinueOnError)
	fs.SetOutput(stderr)
	list := fs.Bool("list", false, "list registered checkers and exit")
	jsonOut := fs.Bool("json", false, "emit findings as a JSON array (schema: check, path, line, col, message)")
	fs.Usage = func() {
		fmt.Fprintf(stderr,
			"usage: sperke-vet [-list] [-json] [packages]\n\npackages are module-relative paths; ./... (the default) means the whole module.\n\n")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return 2
	}

	analyzers := vet.Analyzers()
	if *list {
		for _, a := range analyzers {
			fmt.Fprintf(stdout, "%-17s %s\n", a.Name, a.Doc)
		}
		return 0
	}

	root, err := vet.ModuleRoot(".")
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	prefixes, err := targetPrefixes(root, fs.Args())
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}

	start := time.Now()
	m, err := vet.LoadModule(root)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	fmt.Fprintf(stderr, "sperke-vet: typed load of %d packages in %v\n",
		len(m.Pkgs), time.Since(start).Round(time.Millisecond))
	var kept []vet.Diagnostic
	for _, d := range vet.RunModule(m, analyzers) {
		if matchesTarget(d.Pos.Filename, prefixes) {
			kept = append(kept, d)
		}
	}
	if *jsonOut {
		out := make([]jsonDiag, 0, len(kept))
		for _, d := range kept {
			out = append(out, jsonDiag{
				Check: d.Check, Path: d.Pos.Filename,
				Line: d.Pos.Line, Col: d.Pos.Column, Message: d.Message,
			})
		}
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(out); err != nil {
			fmt.Fprintln(stderr, err)
			return 2
		}
	} else {
		for _, d := range kept {
			fmt.Fprintln(stdout, d)
		}
	}
	if len(kept) > 0 {
		fmt.Fprintf(stderr, "sperke-vet: %d finding(s)\n", len(kept))
		return 1
	}
	return 0
}

// targetPrefixes converts CLI package arguments into module-relative
// path prefixes. Empty (or "./...") means everything.
func targetPrefixes(root string, args []string) ([]string, error) {
	var out []string
	for _, a := range args {
		a = strings.TrimSuffix(a, "...")
		a = strings.TrimSuffix(a, "/")
		if a == "." || a == "./" || a == "" {
			return nil, nil // whole module
		}
		abs, err := filepath.Abs(a)
		if err != nil {
			return nil, err
		}
		rel, err := filepath.Rel(root, abs)
		if err != nil || strings.HasPrefix(rel, "..") {
			return nil, fmt.Errorf("sperke-vet: %s is outside the module", a)
		}
		out = append(out, filepath.ToSlash(rel))
	}
	return out, nil
}

// matchesTarget reports whether the module-relative file path falls
// under any requested prefix (nil prefixes match everything).
func matchesTarget(path string, prefixes []string) bool {
	if len(prefixes) == 0 {
		return true
	}
	for _, p := range prefixes {
		if p == "." || path == p || strings.HasPrefix(path, p+"/") {
			return true
		}
	}
	return false
}
