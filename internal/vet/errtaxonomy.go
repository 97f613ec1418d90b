package vet

import (
	"go/ast"
	"go/constant"
	"go/types"
	"strings"
)

// taxonomySpans are the delivery-path packages that carry a typed error
// taxonomy (dash.Error kinds, transport sentinels). Callers there
// branch on errors.Is/As, so causes must stay inspectable.
var taxonomySpans = []string{
	"internal/dash",
	"internal/transport",
}

// errorType is the universe's error interface.
var errorType = types.Universe.Lookup("error").Type().Underlying().(*types.Interface)

// errTaxonomy enforces the delivery path's error discipline:
//
//   - fmt.Errorf that embeds an error value — an argument whose type
//     implements error, whatever it is named — must wrap it with %w so
//     errors.Is/As keep seeing the sentinel or *dash.Error underneath;
//   - errors.New inside a function body is forbidden — ad-hoc opaque
//     errors defeat the taxonomy. Package-level sentinel declarations
//     (var ErrX = errors.New(...)) are the taxonomy and stay legal.
//
// Only this checker catches a %w turned into %v on a path no test
// drives to its error: dash.parseMPD's XML error ("parsing MPD"). The
// kinds the callers branch on are pinned by
// TestOneAttemptBudgetEveryMethod (errors.As to *dash.Error).
var errTaxonomy = &analyzer{
	Name: "errtaxonomy",
	CheckModule: func(m *module) []diagnostic {
		var out []diagnostic
		eachFunc(m, taxonomySpans, func(tp *typedPackage, f *file, name string, fd *ast.FuncDecl) {
			ast.Inspect(fd, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				callee := calleeOf(tp.Info, call)
				if callee == nil || callee.Pkg() == nil {
					return true
				}
				switch callee.Pkg().Path() + "." + callee.Name() {
				case "errors.New":
					out = append(out, f.diag("errtaxonomy", call.Pos(),
						"in-function errors.New in %s (func %s): return a typed taxonomy error (sentinel var or *dash.Error) so callers can errors.Is/As",
						tp.Dir, name))
				case "fmt.Errorf":
					if arg := unwrappedCause(tp.Info, call); arg != nil {
						out = append(out, f.diag("errtaxonomy", arg.Pos(),
							"fmt.Errorf embeds %q without %%w: wrap the cause so the taxonomy stays inspectable",
							types.ExprString(arg)))
					}
				}
				return true
			})
		})
		return out
	},
}

// unwrappedCause returns the first error-typed argument of a fmt.Errorf
// call whose constant format string has no %w verb, or nil.
func unwrappedCause(info *types.Info, call *ast.CallExpr) ast.Expr {
	if len(call.Args) < 2 {
		return nil
	}
	format := info.Types[call.Args[0]].Value
	if format == nil || format.Kind() != constant.String || strings.Contains(constant.StringVal(format), "%w") {
		return nil
	}
	for _, arg := range call.Args[1:] {
		if t := info.TypeOf(arg); t != nil && types.Implements(t, errorType) {
			return arg
		}
	}
	return nil
}
