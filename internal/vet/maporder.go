package vet

import (
	"go/ast"
	"go/types"
)

// MapOrder pins the PR 2 "byte-identical experiment output" claim at
// the source: in deterministic packages, a `for range` over a map whose
// body appends to a slice leaks Go's randomized iteration order into
// whatever that slice feeds (rendered tables, serialized snapshots,
// fetch plans). The finding is waived when the function visibly
// restores order — a sort.*/slices.* call on the destination slice
// after the loop. The ranged expression's type comes from go/types, so
// a map reached through a field, an index or a call counts the same as
// a local.
var MapOrder = &Analyzer{
	Name: "maporder",
	Doc:  "flag map-range loops that append to slices in deterministic packages without sorting",
	CheckModule: func(m *Module) []Diagnostic {
		var out []Diagnostic
		eachFunc(m, deterministicSpans, func(tp *TypedPackage, f *File, name string, fd *ast.FuncDecl) {
			if fd.Body == nil {
				return
			}
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				rng, ok := n.(*ast.RangeStmt)
				if !ok {
					return true
				}
				if _, isMap := tp.Info.TypeOf(rng.X).Underlying().(*types.Map); !isMap {
					return true
				}
				for _, target := range appendTargets(rng.Body) {
					if sortedAfter(tp.Info, fd.Body, rng, target) {
						continue
					}
					out = append(out, f.diag("maporder", rng.Pos(),
						"map iteration order leaks into slice %q (func %s): sort the keys first or sort %q before it is returned/serialized",
						target, name, target))
				}
				return true
			})
		})
		return out
	},
}

// appendTargets returns the names of slices the block grows via
// s = append(s, ...).
func appendTargets(body *ast.BlockStmt) []string {
	var out []string
	seen := make(map[string]bool)
	ast.Inspect(body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok || len(as.Lhs) != 1 || len(as.Rhs) != 1 {
			return true
		}
		lhs, ok := as.Lhs[0].(*ast.Ident)
		if !ok {
			return true
		}
		call, ok := as.Rhs[0].(*ast.CallExpr)
		if !ok || len(call.Args) == 0 {
			return true
		}
		if fn, ok := call.Fun.(*ast.Ident); !ok || fn.Name != "append" {
			return true
		}
		if arg, ok := call.Args[0].(*ast.Ident); ok && arg.Name == lhs.Name && !seen[lhs.Name] {
			seen[lhs.Name] = true
			out = append(out, lhs.Name)
		}
		return true
	})
	return out
}

// sortedAfter reports whether a sort.*/slices.* call whose first
// argument is the named slice appears after the range loop inside the
// function body.
func sortedAfter(info *types.Info, body *ast.BlockStmt, rng *ast.RangeStmt, target string) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if found {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok || call.Pos() <= rng.End() || len(call.Args) == 0 {
			return true
		}
		callee := calleeOf(info, call)
		if callee == nil || callee.Pkg() == nil || (callee.Pkg().Path() != "sort" && callee.Pkg().Path() != "slices") {
			return true
		}
		if arg, ok := call.Args[0].(*ast.Ident); ok && arg.Name == target {
			found = true
		}
		return true
	})
	return found
}
