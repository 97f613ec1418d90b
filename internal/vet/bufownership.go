package vet

import (
	"go/ast"
	"strings"
)

// BufOwnership enforces the PR 5 pooled-scratch contract: a buffer
// borrowed from a pool must be returned before the borrowing function
// exits. Concretely, every `X.Get()` call where X is an ident/selector
// chain whose rendered name mentions "pool" or "scratch" must be
// matched by an `X.Put(...)` on the same chain somewhere in the same
// function — otherwise the buffer is retained past handler return and
// the pool silently degrades to plain allocation (or worse, the buffer
// escapes into a cache and is recycled under a reader).
//
// The checker keys off naming: fields and locals that
// hold pools are named for it in this codebase (obs.BufferPool users
// call them `scratch`). Lookups on unrelated types (cache.Get(key),
// flag.Lookup) don't match the chain-name heuristic or take arguments
// and are ignored. The pool implementation itself (internal/obs) is
// exempt, as are tests.
var BufOwnership = &Analyzer{
	Name: "bufownership",
	Doc:  "flag pool/scratch Get() calls with no matching Put on the same pool in the function",
	CheckModule: func(m *Module) []Diagnostic {
		var out []Diagnostic
		eachFunc(m, nil, func(tp *TypedPackage, f *File, name string, fd *ast.FuncDecl) {
			if fd.Body == nil || inSpan(tp.Dir, []string{"internal/obs"}) {
				return
			}
			// First pass: collect the chains that Put somewhere in
			// this function (defer or not — both keep the contract).
			puts := make(map[string]bool)
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				if chain, ok := poolMethodChain(n, "Put", 1); ok {
					puts[chain] = true
				}
				return true
			})
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				chain, ok := poolMethodChain(n, "Get", 0)
				if !ok || puts[chain] {
					return true
				}
				out = append(out, f.diag("bufownership", n.Pos(),
					"%s.Get() in func %s has no matching %s.Put in this function: pooled buffers must be returned before the function exits",
					chain, name, chain))
				return true
			})
		})
		return out
	},
}

// poolMethodChain matches a call `<chain>.<method>(...)` with exactly
// argc arguments where <chain> renders to an ident/selector path whose
// name mentions a pool. It returns the rendered chain.
func poolMethodChain(n ast.Node, method string, argc int) (string, bool) {
	call, ok := n.(*ast.CallExpr)
	if !ok || len(call.Args) != argc {
		return "", false
	}
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != method {
		return "", false
	}
	chain := renderChain(sel.X)
	if chain == "" || !poolish(chain) {
		return "", false
	}
	return chain, true
}

// renderChain flattens an ident/selector expression ("s.scratch",
// "pool") to its source text, or "" for anything more exotic.
func renderChain(e ast.Expr) string {
	switch e := e.(type) {
	case *ast.Ident:
		return e.Name
	case *ast.SelectorExpr:
		base := renderChain(e.X)
		if base == "" {
			return ""
		}
		return base + "." + e.Sel.Name
	case *ast.ParenExpr:
		return renderChain(e.X)
	}
	return ""
}

// poolish reports whether the chain names a buffer pool.
func poolish(chain string) bool {
	lower := strings.ToLower(chain)
	return strings.Contains(lower, "pool") || strings.Contains(lower, "scratch")
}
