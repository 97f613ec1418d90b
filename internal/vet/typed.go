package vet

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
)

// This file is the framework's one source of types: a go/types load of
// the whole module through a source-order importer.
// Packages are type-checked in dependency order and each checked
// package feeds an in-memory importer for its dependents, so the whole
// load stays pure stdlib — no go/packages, no export data, no shelling
// out to the go tool. Standard-library imports are resolved by the
// stdlib source importer (go/importer "source"), which type-checks
// them from $GOROOT/src.

// typedPackage is one type-checked package of the module: the parsed
// files (sharing the module's FileSet), the *types.Package, and the
// types.Info recorded while checking it.
type typedPackage struct {
	// Dir is module-relative, e.g. "internal/dash".
	Dir string
	// ImportPath is the full import path, e.g. "sperke/internal/dash".
	ImportPath string
	Files      []*file
	Pkg        *types.Package
	Info       *types.Info
}

// module is the whole-module view the typed checkers run over. Pkgs is
// in dependency order: every package appears after everything it
// imports.
type module struct {
	// Path is the module path from go.mod (e.g. "sperke").
	Path string
	Fset *token.FileSet
	Pkgs []*typedPackage

	byPath map[string]*typedPackage
}

// internal reports whether the import path belongs to this module.
func (m *module) internal(importPath string) bool {
	return importPath == m.Path || strings.HasPrefix(importPath, m.Path+"/")
}

// loadModule parses and type-checks every non-test package under root
// (the directory holding go.mod): the files moduleFiles selects for the
// platform the go tool would build for.
func loadModule(root string) (*module, error) {
	modPath, err := modulePath(root)
	if err != nil {
		return nil, err
	}
	paths, err := moduleFiles(&build.Default, root, false)
	if err != nil {
		return nil, err
	}
	fset := token.NewFileSet()
	files := make([]*file, 0, len(paths))
	for _, rel := range paths {
		src, err := os.ReadFile(filepath.Join(root, filepath.FromSlash(rel)))
		if err != nil {
			return nil, err
		}
		f, err := parseShared(fset, src, rel)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	return typeCheckModule(modPath, fset, files)
}

// moduleFiles lists, as module-relative slash paths, the Go files under
// root that ctxt builds: the _test.go files when tests is set, else the
// rest (the shipped checkers read no test file). The selection is go/build's own: a //go:build line, a
// _GOOS or _GOARCH file-name suffix and ctxt's platform decide as they
// do for the go tool (build.Default reads GOOS and GOARCH from the
// environment). Like the go tool's ./..., it skips testdata, vendor,
// hidden and _-prefixed trees and nested modules.
func moduleFiles(ctxt *build.Context, root string, tests bool) ([]string, error) {
	var paths []string
	err := filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		name := d.Name()
		if d.IsDir() {
			if p == root {
				return nil
			}
			if strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") ||
				name == "vendor" || name == "testdata" {
				return fs.SkipDir
			}
			if _, err := os.Stat(filepath.Join(p, "go.mod")); err == nil {
				return fs.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") != tests {
			return nil
		}
		if ok, err := ctxt.MatchFile(filepath.Dir(p), name); !ok || err != nil {
			return err
		}
		rel, err := filepath.Rel(root, p)
		if err != nil {
			return err
		}
		paths = append(paths, filepath.ToSlash(rel))
		return nil
	})
	return paths, err
}

// parseShared parses src under the module-relative slash path modPath
// into the shared FileSet.
func parseShared(fset *token.FileSet, src []byte, modPath string) (*file, error) {
	af, err := parser.ParseFile(fset, modPath, src, parser.ParseComments)
	if err != nil {
		return nil, fmt.Errorf("vet: parse %s: %w", modPath, err)
	}
	return &file{Path: modPath, Fset: fset, AST: af}, nil
}

// typeCheckModule groups files by directory, orders the packages so
// imports come first, and type-checks each one, feeding every checked
// package into the importer used for its dependents.
func typeCheckModule(modPath string, fset *token.FileSet, files []*file) (*module, error) {
	byDir := make(map[string][]*file)
	for _, f := range files {
		byDir[f.dir()] = append(byDir[f.dir()], f)
	}
	for _, fs := range byDir {
		sort.Slice(fs, func(i, j int) bool { return fs[i].Path < fs[j].Path })
	}

	m := &module{
		Path:   modPath,
		Fset:   fset,
		byPath: make(map[string]*typedPackage),
	}
	importPathOf := func(dir string) string {
		if dir == "." {
			return modPath
		}
		return modPath + "/" + dir
	}

	order, err := dependencyOrder(modPath, byDir)
	if err != nil {
		return nil, err
	}

	for _, dir := range order {
		group := byDir[dir]
		imp := &moduleImporter{m: m}
		var checkErrs []string
		conf := types.Config{
			Importer: imp,
			Error: func(err error) {
				if len(checkErrs) < 8 {
					checkErrs = append(checkErrs, err.Error())
				}
			},
		}
		info := &types.Info{
			Types:      make(map[ast.Expr]types.TypeAndValue),
			Uses:       make(map[*ast.Ident]types.Object),
			Defs:       make(map[*ast.Ident]types.Object),
			Selections: make(map[*ast.SelectorExpr]*types.Selection),
		}
		asts := make([]*ast.File, len(group))
		for i, f := range group {
			asts[i] = f.AST
		}
		pkg, err := conf.Check(importPathOf(dir), fset, asts, info)
		if err != nil {
			return nil, fmt.Errorf("vet: type-checking %s: %s", dir, strings.Join(checkErrs, "; "))
		}
		tp := &typedPackage{
			Dir:        dir,
			ImportPath: importPathOf(dir),
			Files:      group,
			Pkg:        pkg,
			Info:       info,
		}
		m.Pkgs = append(m.Pkgs, tp)
		m.byPath[tp.ImportPath] = tp
	}
	return m, nil
}

// dependencyOrder topologically sorts the package directories by their
// module-internal imports (dependencies first). Import cycles are a
// hard error — the go build would reject them too.
func dependencyOrder(modPath string, byDir map[string][]*file) ([]string, error) {
	deps := make(map[string][]string, len(byDir))
	for dir, files := range byDir {
		seen := map[string]bool{}
		for _, f := range files {
			for _, imp := range f.AST.Imports {
				p := strings.Trim(imp.Path.Value, `"`)
				if p != modPath && !strings.HasPrefix(p, modPath+"/") {
					continue
				}
				d := strings.TrimPrefix(strings.TrimPrefix(p, modPath), "/")
				if d == "" {
					d = "."
				}
				if d != dir && !seen[d] {
					seen[d] = true
					deps[dir] = append(deps[dir], d)
				}
			}
		}
		sort.Strings(deps[dir])
	}
	const (
		visiting = 1
		done     = 2
	)
	state := make(map[string]int, len(byDir))
	var order []string
	var visit func(dir string, trail []string) error
	visit = func(dir string, trail []string) error {
		switch state[dir] {
		case done:
			return nil
		case visiting:
			return fmt.Errorf("vet: import cycle through %s (%s)", dir, strings.Join(trail, " -> "))
		}
		state[dir] = visiting
		for _, d := range deps[dir] {
			if _, ok := byDir[d]; !ok {
				continue // import of a module dir with no non-test files
			}
			if err := visit(d, append(trail, dir)); err != nil {
				return err
			}
		}
		state[dir] = done
		order = append(order, dir)
		return nil
	}
	dirs := make([]string, 0, len(byDir))
	for d := range byDir {
		dirs = append(dirs, d)
	}
	sort.Strings(dirs)
	for _, d := range dirs {
		if err := visit(d, nil); err != nil {
			return nil, err
		}
	}
	return order, nil
}

// moduleImporter resolves module-internal imports from the packages
// checked so far and defers everything else to the shared stdlib
// source importer.
type moduleImporter struct {
	m *module
}

func (mi *moduleImporter) Import(p string) (*types.Package, error) {
	if tp, ok := mi.m.byPath[p]; ok {
		return tp.Pkg, nil
	}
	if mi.m.internal(p) {
		return nil, fmt.Errorf("vet: module package %s not loaded (import cycle or missing files?)", p)
	}
	return importStd(p)
}

// The stdlib source importer is shared process-wide: it type-checks
// each standard package from $GOROOT/src exactly once and serves every
// subsequent load (the tree, the fixture modules) from its cache.
// It keeps its own FileSet — checkers never render positions of
// standard-library objects, so the two sets never mix.
var (
	stdMu   sync.Mutex
	stdImp  types.Importer
	stdFset = token.NewFileSet()
)

func importStd(p string) (*types.Package, error) {
	stdMu.Lock()
	defer stdMu.Unlock()
	if stdImp == nil {
		// The source importer honours go/build's context; cgo is disabled
		// so packages like net type-check from their pure-Go fallbacks.
		build.Default.CgoEnabled = false
		stdImp = importer.ForCompiler(stdFset, "source", nil)
	}
	return stdImp.Import(p)
}

// modulePath reads the module path from root's go.mod.
func modulePath(root string) (string, error) {
	b, err := os.ReadFile(filepath.Join(root, "go.mod"))
	if err != nil {
		return "", fmt.Errorf("vet: reading go.mod: %w", err)
	}
	for _, line := range strings.Split(string(b), "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module"); ok {
			return strings.TrimSpace(rest), nil
		}
	}
	return "", fmt.Errorf("vet: no module line in %s/go.mod", root)
}

// ---- shared typed helpers for the checkers ----

// calleeOf resolves the static callee of a call expression: a direct
// function call or a method call on a concrete or interface receiver.
// Calls through function values (fields, locals) return nil — they
// have no static callee.
func calleeOf(info *types.Info, call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		fn, _ := info.Uses[fun].(*types.Func)
		return fn
	case *ast.SelectorExpr:
		fn, _ := info.Uses[fun.Sel].(*types.Func)
		return fn
	}
	return nil
}
