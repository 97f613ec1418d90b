package vet

import (
	"go/ast"
)

// obsInstruments are the obs types that must be obtained from a
// Registry (or its constructor), never built directly: a literal skips
// registration, so /metrics never sees it; a literal Registry lacks its
// maps and a literal Histogram its Min/Max initialisation.
var obsInstruments = map[string]bool{
	"Counter":   true,
	"Gauge":     true,
	"Histogram": true,
	"Registry":  true,
	// A literal obs.Wall has a zero epoch, so every Now() reads as
	// decades of uptime; obs.NewWall anchors it.
	"Wall": true,
}

// obsDiscipline requires metrics instruments to flow through the
// nil-safe registry API outside internal/obs: obs.Default() or
// obs.NewRegistry() for registries, r.Counter(name)/r.Gauge(name)/
// r.Histogram(name) for instruments. Composite literals and new() of
// the instrument types are flagged. (Field mutation is already ruled
// out by the compiler — the instrument fields are unexported.)
//
// Only this checker catches dash.Server's wall built as &obs.Wall{} in
// place of obs.NewWall(): request_ms then reads from a zero epoch, and
// no test fails. A literal counter never reaches the registry, which
// TestServerCountsEveryRoute sees as a missing count.
var obsDiscipline = &analyzer{
	Name: "obsdiscipline",
	CheckModule: func(m *module) []diagnostic {
		var out []diagnostic
		eachFile(m, nil, func(tp *typedPackage, f *file) {
			obsName := importName(f.AST, m.Path+"/internal/obs")
			if obsName == "" || inSpan(tp.Dir, []string{"internal/obs"}) {
				return
			}
			flag := func(pos ast.Node, typ string) {
				if typ == "Wall" {
					out = append(out, f.diag("obsdiscipline", pos.Pos(),
						"direct construction of %s.Wall: use %s.NewWall() so the epoch is anchored at creation",
						obsName, obsName))
					return
				}
				out = append(out, f.diag("obsdiscipline", pos.Pos(),
					"direct construction of %s.%s: obtain instruments via the nil-safe registry (%s.NewRegistry / Registry.%s(name))",
					obsName, typ, obsName, typ))
			}
			ast.Inspect(f.AST, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.CompositeLit:
					if sel, ok := n.Type.(*ast.SelectorExpr); ok {
						if id, ok := sel.X.(*ast.Ident); ok && id.Name == obsName && obsInstruments[sel.Sel.Name] {
							flag(n, sel.Sel.Name)
						}
					}
				case *ast.CallExpr:
					id, ok := n.Fun.(*ast.Ident)
					if !ok || id.Name != "new" || len(n.Args) != 1 {
						return true
					}
					if sel, ok := n.Args[0].(*ast.SelectorExpr); ok {
						if x, ok := sel.X.(*ast.Ident); ok && x.Name == obsName && obsInstruments[sel.Sel.Name] {
							flag(n, sel.Sel.Name)
						}
					}
				}
				return true
			})
		})
		return out
	},
}
