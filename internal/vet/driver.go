package vet

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path"
	"path/filepath"
	"sort"
	"strings"
)

// ParseSource parses in-memory source under the given module-relative
// path — the fixture harness uses it directly.
func ParseSource(src []byte, modPath string) (*File, error) {
	fset := token.NewFileSet()
	af, err := parseInto(fset, modPath, src)
	if err != nil {
		return nil, err
	}
	return &File{Path: modPath, Fset: fset, AST: af}, nil
}

// parseInto parses src into an existing FileSet — the typed loader
// needs every file of a package (and the whole module) on one set.
func parseInto(fset *token.FileSet, modPath string, src []byte) (*ast.File, error) {
	af, err := parser.ParseFile(fset, modPath, src, parser.ParseComments)
	if err != nil {
		return nil, fmt.Errorf("vet: parse %s: %w", modPath, err)
	}
	return af, nil
}

// ModuleRoot walks upward from dir to the directory containing go.mod.
func ModuleRoot(dir string) (string, error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(abs, "go.mod")); err == nil {
			return abs, nil
		}
		parent := filepath.Dir(abs)
		if parent == abs {
			return "", fmt.Errorf("vet: no go.mod above %s", dir)
		}
		abs = parent
	}
}

// suppressions indexes //sperke:nolint comments. A nolint comment
// suppresses matching diagnostics on its own line and on the line
// directly below it (so it can trail the offending expression or sit
// on its own line above it). Each comment tracks whether it ever
// suppressed anything, so a full run can report stale waivers.
type suppressions struct {
	// byFile maps path -> line -> comments anchored there.
	byFile map[string]map[int][]*nolintComment
	all    []*nolintComment
}

// nolintComment is one waiver comment; checks containing "*" waives
// every checker.
type nolintComment struct {
	path   string
	line   int
	test   bool
	checks []string
	used   bool
}

const nolintPrefix = "//sperke:nolint"

func newSuppressions(files []*File) *suppressions {
	s := &suppressions{byFile: make(map[string]map[int][]*nolintComment)}
	for _, f := range files {
		for _, cg := range f.AST.Comments {
			for _, c := range cg.List {
				text, ok := strings.CutPrefix(c.Text, nolintPrefix)
				if !ok {
					continue
				}
				checks := []string{"*"}
				if rest, ok := strings.CutPrefix(text, "("); ok {
					if inner, _, ok := strings.Cut(rest, ")"); ok {
						checks = strings.Split(inner, ",")
						for i := range checks {
							checks[i] = strings.TrimSpace(checks[i])
						}
					}
				}
				lines := s.byFile[f.Path]
				if lines == nil {
					lines = make(map[int][]*nolintComment)
					s.byFile[f.Path] = lines
				}
				nc := &nolintComment{
					path:   f.Path,
					line:   f.Fset.Position(c.Pos()).Line,
					test:   f.Test(),
					checks: checks,
				}
				lines[nc.line] = append(lines[nc.line], nc)
				s.all = append(s.all, nc)
			}
		}
	}
	return s
}

// covers reports whether d is suppressed, marking the suppressing
// comment used.
func (s *suppressions) covers(d Diagnostic) bool {
	lines := s.byFile[d.Pos.Filename]
	if lines == nil {
		return false
	}
	hit := false
	for _, line := range []int{d.Pos.Line, d.Pos.Line - 1} {
		for _, nc := range lines[line] {
			for _, c := range nc.checks {
				if c == "*" || c == d.Check {
					nc.used = true
					hit = true
				}
			}
		}
	}
	return hit
}

// unused returns the waivers that never suppressed anything, sorted by
// position. Test files are exempt: the checkers skip them, so their
// nolints are documentation, not waivers.
func (s *suppressions) unused() []UnusedNolint {
	var out []UnusedNolint
	for _, nc := range s.all {
		if nc.used || nc.test {
			continue
		}
		out = append(out, UnusedNolint{Path: nc.path, Line: nc.line, Checks: nc.checks})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Path != out[j].Path {
			return out[i].Path < out[j].Path
		}
		return out[i].Line < out[j].Line
	})
	return out
}

// ---- shared AST helpers for the checkers ----

// importName returns the local identifier the file binds importPath to:
// the declared alias, or the base name of the path when unaliased.
// Blank and dot imports return "".
func importName(f *ast.File, importPath string) string {
	for _, imp := range f.Imports {
		p := strings.Trim(imp.Path.Value, `"`)
		if p != importPath {
			continue
		}
		if imp.Name != nil {
			if imp.Name.Name == "_" || imp.Name.Name == "." {
				return ""
			}
			return imp.Name.Name
		}
		return path.Base(p)
	}
	return ""
}

// pkgCall matches a call to <pkgIdent>.<fn> and returns fn's name.
func pkgCall(call *ast.CallExpr, pkgIdent string) (string, bool) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return "", false
	}
	id, ok := sel.X.(*ast.Ident)
	if !ok || id.Name != pkgIdent {
		return "", false
	}
	return sel.Sel.Name, true
}

// inSpan reports whether the module-relative path (file or dir) lives
// under one of the listed package spans.
func inSpan(p string, spans []string) bool {
	for _, s := range spans {
		if p == s || strings.HasPrefix(p, s+"/") {
			return true
		}
	}
	return false
}

// deterministicSpans are the package trees whose outputs must be pure
// functions of their inputs: experiment tables, QoE scores, ABR plans
// and metrics snapshots are all compared byte-for-byte across runs.
var deterministicSpans = []string{
	"internal/sim",
	"internal/experiments",
	"internal/core",
	"internal/qoe",
	"internal/abr",
	"internal/obs",
}

// funcDecls invokes fn for every function declaration in the file with
// a stable display name: "Name" for functions, "Recv.Name" for methods.
func funcDecls(f *File, fn func(name string, decl *ast.FuncDecl)) {
	for _, d := range f.AST.Decls {
		fd, ok := d.(*ast.FuncDecl)
		if !ok {
			continue
		}
		fn(funcDisplayName(fd), fd)
	}
}

// funcDisplayName renders "Name" or "Recv.Name".
func funcDisplayName(fd *ast.FuncDecl) string {
	name := fd.Name.Name
	if fd.Recv != nil && len(fd.Recv.List) == 1 {
		t := fd.Recv.List[0].Type
		if star, ok := t.(*ast.StarExpr); ok {
			t = star.X
		}
		// Drop type parameters on generic receivers.
		if idx, ok := t.(*ast.IndexExpr); ok {
			t = idx.X
		}
		if id, ok := t.(*ast.Ident); ok {
			name = id.Name + "." + name
		}
	}
	return name
}
