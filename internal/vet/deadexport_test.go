package vet

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// TestEveryExportHasACaller holds internal/* to the surface something
// uses. Every exported package-level name, and every exported method of
// an exported type, must be referenced from outside its own package: by
// shipped code (cmd/, examples/ and the nested bench/ module included),
// by another package's tests, or by the package's own _test package
// (its Examples). A type also counts when another package holds a value
// of it, as a caller of core.NewSession holds a *core.Session. Two
// things are exempt: a method that satisfies an interface (or is named
// String, Error, Unwrap or Is), and an Err* sentinel: a var whose type
// implements error. A name that only its own package uses is unexported;
// one that only its own tests use goes, with those tests.
func TestEveryExportHasACaller(t *testing.T) {
	root, err := moduleRoot(".")
	if err != nil {
		t.Fatal(err)
	}
	u, err := loadUses(root)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range u.deadExports() {
		t.Error(d)
	}
}

// Where an object is referenced from, relative to its own package.
const (
	usedOutside = 1 << iota
	usedByOwnCode
	usedByOwnTests
)

// uses is the reference map of the module, bench/ and every test file,
// keyed by declaration position: the objects an in-package test check
// declares are copies of the shipped ones at the same positions.
type uses struct {
	m      *module
	from   map[token.Pos]int
	ifaces map[string][]*types.Interface // by method name
}

// loadUses type-checks the module with bench/ as a second root, then
// each directory's test files: in-package tests together with their
// package's files, _test packages against the shipped load.
func loadUses(root string) (*uses, error) {
	var files []*file
	fset := token.NewFileSet()
	parseAll := func(dir, prefix string, tests bool) ([]*file, error) {
		paths, err := moduleFiles(&build.Default, dir, tests)
		if err != nil {
			return nil, err
		}
		var out []*file
		for _, rel := range paths {
			src, err := os.ReadFile(filepath.Join(dir, filepath.FromSlash(rel)))
			if err != nil {
				return nil, err
			}
			f, err := parseShared(fset, src, prefix+rel)
			if err != nil {
				return nil, err
			}
			out = append(out, f)
		}
		return out, nil
	}
	var tests []*file
	for _, r := range []struct{ dir, prefix string }{{root, ""}, {filepath.Join(root, "bench"), "bench/"}} {
		shipped, err := parseAll(r.dir, r.prefix, false)
		if err != nil {
			return nil, err
		}
		files = append(files, shipped...)
		ts, err := parseAll(r.dir, r.prefix, true)
		if err != nil {
			return nil, err
		}
		tests = append(tests, ts...)
	}
	m, err := typeCheckModule("sperke", fset, files)
	if err != nil {
		return nil, err
	}
	u := &uses{m: m, from: make(map[token.Pos]int), ifaces: make(map[string][]*types.Interface)}
	for _, tp := range m.Pkgs {
		u.record(tp.ImportPath, tp.Info, false)
	}

	byPkg := make(map[string][]*ast.File) // import path, "_test" suffixed for external tests
	var keys []string
	for _, f := range tests {
		p := m.Path
		if d := f.dir(); d != "." {
			p += "/" + d
		}
		if strings.HasSuffix(f.AST.Name.Name, "_test") {
			p += "_test"
		}
		if _, ok := byPkg[p]; !ok {
			keys = append(keys, p)
			if tp := m.byPath[p]; tp != nil {
				for _, sf := range tp.Files {
					byPkg[p] = append(byPkg[p], sf.AST)
				}
			}
		}
		byPkg[p] = append(byPkg[p], f.AST)
	}
	for _, p := range keys {
		info := &types.Info{
			Types: make(map[ast.Expr]types.TypeAndValue),
			Uses:  make(map[*ast.Ident]types.Object),
			Defs:  make(map[*ast.Ident]types.Object),
		}
		conf := types.Config{Importer: &moduleImporter{m: m}}
		if _, err := conf.Check(p, fset, byPkg[p], info); err != nil {
			return nil, fmt.Errorf("type-checking tests of %s: %w", p, err)
		}
		u.record(p, info, true)
	}

	seen := make(map[*types.Package]bool)
	var walk func(p *types.Package)
	walk = func(p *types.Package) {
		if seen[p] {
			return
		}
		seen[p] = true
		for _, name := range p.Scope().Names() {
			if tn, ok := p.Scope().Lookup(name).(*types.TypeName); ok {
				u.addIface(tn.Type())
			}
		}
		for _, imp := range p.Imports() {
			walk(imp)
		}
	}
	for _, tp := range m.Pkgs {
		walk(tp.Pkg)
	}
	return u, nil
}

// record notes every reference the package checked as path makes, and
// every interface type it mentions. An in-package test check re-checks
// the shipped files too, so only its test files are read.
func (u *uses) record(path string, info *types.Info, tests bool) {
	fset := u.m.Fset
	inScope := func(pos token.Pos) bool {
		return !tests || strings.HasSuffix(fset.Position(pos).Filename, "_test.go")
	}
	mark := func(obj types.Object) {
		if obj == nil || obj.Pkg() == nil || !u.m.internal(obj.Pkg().Path()) {
			return
		}
		switch o := obj.(type) {
		case *types.Func:
			obj = o.Origin()
		case *types.Var:
			obj = o.Origin()
		}
		switch {
		case obj.Pkg().Path() != path:
			u.from[obj.Pos()] |= usedOutside
		case tests:
			u.from[obj.Pos()] |= usedByOwnTests
		default:
			u.from[obj.Pos()] |= usedByOwnCode
		}
	}
	// held marks the named type a value of t holds, through pointers,
	// slices, arrays, maps and channels.
	held := func(t types.Type) {
		for {
			t = types.Unalias(t)
			if n, ok := t.(*types.Named); ok {
				mark(n.Origin().Obj())
				return
			}
			e, ok := t.(interface{ Elem() types.Type })
			if !ok {
				return
			}
			t = e.Elem()
		}
	}
	for id, obj := range info.Uses {
		if inScope(id.Pos()) {
			mark(obj)
		}
	}
	for id, obj := range info.Defs {
		if v, ok := obj.(*types.Var); ok && inScope(id.Pos()) {
			held(v.Type())
		}
		if tn, ok := obj.(*types.TypeName); ok {
			u.addIface(tn.Type())
		}
	}
	for e, tv := range info.Types {
		u.addIface(tv.Type)
		if inScope(e.Pos()) && !tv.IsType() {
			held(tv.Type)
		}
	}
}

// addIface indexes t by its method names if it is a plain method-set
// interface.
func (u *uses) addIface(t types.Type) {
	if n, ok := types.Unalias(t).(*types.Named); ok && n.TypeParams().Len() > 0 {
		return
	}
	it, ok := t.Underlying().(*types.Interface)
	if !ok || !it.IsMethodSet() {
		return
	}
	for i := 0; i < it.NumMethods(); i++ {
		name := it.Method(i).Name()
		for _, seen := range u.ifaces[name] {
			if types.Identical(seen, it) {
				return
			}
		}
		u.ifaces[name] = append(u.ifaces[name], it)
	}
}

// satisfiesInterface reports whether fn, a method of a named type, is
// one some interface of the load asks for.
func (u *uses) satisfiesInterface(recv *types.Named, fn *types.Func) bool {
	switch fn.Name() {
	case "String", "Error", "Unwrap", "Is":
		return true
	}
	for _, it := range u.ifaces[fn.Name()] {
		if types.Implements(recv, it) || types.Implements(types.NewPointer(recv), it) {
			return true
		}
	}
	return false
}

// deadExports lists, sorted by position, each export of internal/* that
// no other package references.
func (u *uses) deadExports() []string {
	type dead struct {
		pos  token.Position
		name string
		from int
	}
	var out []dead
	check := func(obj types.Object, name string) {
		if from := u.from[obj.Pos()]; from&usedOutside == 0 {
			out = append(out, dead{u.m.Fset.Position(obj.Pos()), name, from})
		}
	}
	for _, tp := range u.m.Pkgs {
		if !strings.HasPrefix(tp.Dir, "internal/") {
			continue
		}
		scope := tp.Pkg.Scope()
		for _, name := range scope.Names() {
			obj := scope.Lookup(name)
			if !obj.Exported() {
				continue
			}
			if v, ok := obj.(*types.Var); ok && strings.HasPrefix(name, "Err") && types.Implements(v.Type(), errorType) {
				continue
			}
			pkgName := tp.Pkg.Name() + "." + name
			check(obj, pkgName)
			tn, ok := obj.(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			named := tn.Type().(*types.Named)
			for i := 0; i < named.NumMethods(); i++ {
				fn := named.Method(i)
				if fn.Exported() && !u.satisfiesInterface(named, fn) {
					check(fn, pkgName+"."+fn.Name())
				}
			}
		}
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i].pos, out[j].pos
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		return a.Line < b.Line
	})
	msgs := make([]string, len(out))
	for i, d := range out {
		used := "nothing uses it"
		switch {
		case d.from&usedByOwnCode != 0:
			used = "its own package uses it: unexport it"
		case d.from&usedByOwnTests != 0:
			used = "only its own tests use it: delete it"
		}
		msgs[i] = fmt.Sprintf("%s:%d: %s has no caller outside its package; %s", d.pos.Filename, d.pos.Line, d.name, used)
	}
	return msgs
}
