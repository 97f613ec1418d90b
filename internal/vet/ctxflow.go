package vet

import (
	"go/ast"
	"go/types"
)

// ctxSpans are the delivery-path packages where a dropped context
// breaks cancellation end-to-end: a viewer who closes the player must
// unwind synthesis at the origin, not leave goroutines fetching chunks
// nobody will read.
var ctxSpans = []string{
	"internal/dash",
	"internal/serve",
	"internal/cluster",
	"internal/transport",
	"internal/live",
}

// ctxAllowlist names the functions allowed to mint a fresh root
// context inside the spans — each is a documented seam, not a dropped
// caller context. Keys are "dir:Func" / "dir:Type.Method".
var ctxAllowlist = map[string]bool{
	// A Request's context is its Ctx field, which a submitter may leave
	// nil; Request.Context materializes the background root for that
	// case.
	"internal/transport:Request.Context": true,
	// The store's singleflight runs synthesis on a flight-owned context
	// that outlives any single caller and is canceled only when every
	// sharing caller has departed — a fresh root by design.
	"internal/serve:newFlightCtx": true,
	// Health probes originate inside the cluster's probe loop, not from
	// any viewer request; probeCtx mints the root they run under.
	"internal/cluster:probeCtx": true,
	// Background warm work (replica writes, crowd-prior pre-warm
	// syntheses) runs on the warm worker, decoupled by design from the
	// viewer request that enqueued it — cancellation would couple them
	// back. warmCtx mints that root.
	"internal/cluster:warmCtx": true,
	// A wire edge's requests arrive over a socket, from no caller in the
	// process; edgeCtx mints the root of one edge incarnation's requests,
	// which Kill and retire cancel.
	"internal/cluster:edgeCtx": true,
	// The scheduler contract check submits some requests under a context
	// that is already canceled; it is the test's own root, not a caller's.
	"internal/transport/transporttest:play": true,
}

// CtxFlow enforces context propagation on the delivery path: inside
// ctxSpans, context.Background() and context.TODO() are forbidden
// outside allowlisted seams, and passing a nil context to a
// context-accepting callee is always a bug. The check is type-resolved
// — aliased imports and indirect references to the constructors are
// caught — but does not trace derivation: it trusts that whatever
// non-nil context a function passes along descends from its caller's.
var CtxFlow = &Analyzer{
	Name: "ctxflow",
	Doc:  "forbid context.Background/TODO and nil contexts on the delivery path outside allowlisted seams",
	CheckModule: func(m *Module) []Diagnostic {
		var out []Diagnostic
		eachDecl(m, ctxSpans, ctxAllowlist, func(tp *TypedPackage, f *File, name string, d ast.Decl) {
			ast.Inspect(d, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				callee := calleeOf(tp.Info, call)
				if callee == nil {
					return true
				}
				if callee.Pkg() != nil && callee.Pkg().Path() == "context" &&
					(callee.Name() == "Background" || callee.Name() == "TODO") {
					out = append(out, f.diag("ctxflow", call.Pos(),
						"context.%s in delivery package %s (%s): thread the caller's ctx through, or allowlist a named seam",
						callee.Name(), tp.Dir, name))
				}
				sig, _ := callee.Type().(*types.Signature)
				if sig == nil {
					return true
				}
				for i, arg := range call.Args {
					if i >= sig.Params().Len() && !sig.Variadic() {
						break
					}
					pi := i
					if pi >= sig.Params().Len() {
						pi = sig.Params().Len() - 1
					}
					if !isCtxType(sig.Params().At(pi).Type()) {
						continue
					}
					if tv, ok := tp.Info.Types[arg]; ok && tv.IsNil() {
						out = append(out, f.diag("ctxflow", arg.Pos(),
							"nil context passed to %s in delivery package %s (%s): pass the caller's ctx",
							typedDisplayName(callee), tp.Dir, name))
					}
				}
				return true
			})
		})
		return out
	},
}
