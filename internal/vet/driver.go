package vet

import (
	"fmt"
	"go/ast"
	"os"
	"path"
	"path/filepath"
	"strings"
)

// moduleRoot walks upward from dir to the directory containing go.mod.
func moduleRoot(dir string) (string, error) {
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

// ---- shared walkers and AST helpers for the checkers ----

// eachFile invokes fn for every file of the module's packages under
// spans (every package when spans is nil). The typed load leaves test
// files out, so no checker sees them.
func eachFile(m *module, spans []string, fn func(tp *typedPackage, f *file)) {
	for _, tp := range m.Pkgs {
		if spans != nil && !inSpan(tp.Dir, spans) {
			continue
		}
		for _, f := range tp.Files {
			fn(tp, f)
		}
	}
}

// eachFunc invokes fn for every function declaration eachFile reaches,
// with its display name: "Name" for functions, "Recv.Name" for methods.
func eachFunc(m *module, spans []string, fn func(tp *typedPackage, f *file, name string, fd *ast.FuncDecl)) {
	eachFile(m, spans, func(tp *typedPackage, f *file) {
		for _, d := range f.AST.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok {
				fn(tp, f, funcDisplayName(fd), fd)
			}
		}
	})
}

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
