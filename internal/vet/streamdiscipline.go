package vet

import (
	"go/ast"
)

// streamSpans are the serving hot paths: every chunk body they emit
// must stream writer-first (dash.WriteChunkBody, media.Write*
// segment builders, the store's WriterSynth) rather than materialize a
// full []byte per request — PR 7 moved the serving tiers onto the
// writer-first forms precisely to keep per-request allocation flat.
var streamSpans = []string{
	"internal/dash",
	"internal/serve",
	"internal/cluster",
}

// streamMaterializers are the full-body builder entry points, keyed
// "dir:Func" on the callee's module-relative package directory. The
// builder stays exported as the oracle tests and the benchmark compare
// against; the serving tiers must not call it.
var streamMaterializers = map[string]string{
	"internal/dash:BuildChunkBody": "dash.WriteChunkBody",
}

// streamStdlibMaterializers are standard-library whole-body readers
// banned in specific spans, keyed "pkg:Func" → the one span directory
// the ban covers. The wire cluster's router proxies chunk bodies into
// the caller's ResponseWriter a read at a time — through a pooled block
// of the body's class or, when someone needs it whole, the pre-sized
// kept buffer (Cluster.relay);
// slurping a response body with io.ReadAll would re-materialize every
// chunk at the router and put per-request allocation back on the hot
// path.
// The deprecated ioutil alias forwards to the same function but
// resolves to its own package object, so it gets its own entry.
var streamStdlibMaterializers = map[string]string{
	"io:ReadAll":        "internal/cluster",
	"io/ioutil:ReadAll": "internal/cluster",
}

// streamAllowlist names the functions inside the spans that may call a
// materializer.
var streamAllowlist = map[string]bool{
	// The warm queue's worker is the cluster's sanctioned off-hot-path
	// consumer: it runs on its own goroutine behind a bounded queue, and
	// a warm write inherently needs an owned []byte to hand R caches.
	// Materializing THERE is the design — the discipline is that serving
	// goroutines enqueue and stream on, never materialize inline.
	"internal/cluster:Cluster.runWarmJob": true,
	"internal/cluster:Cluster.runPrewarm": true,
}

// StreamDiscipline flags materializing chunk-body builds on the
// serving hot paths. Resolution is type-based, so aliased imports and
// re-exports don't hide a call; function-literal bodies count against
// their enclosing declaration.
var StreamDiscipline = &Analyzer{
	Name: "streamdiscipline",
	Doc:  "serving hot paths must stream chunk bodies writer-first, not materialize full []byte builds",
	CheckModule: func(m *Module) []Diagnostic {
		var out []Diagnostic
		for _, tp := range m.Pkgs {
			if !inSpan(tp.Dir, streamSpans) {
				continue
			}
			typedFileDecls(tp, func(f *File, name string, fd *ast.FuncDecl) {
				fn := declFunc(tp.Info, fd)
				if fn != nil && streamAllowlist[typedFuncKey(m, fn)] {
					return
				}
				ast.Inspect(fd, func(n ast.Node) bool {
					call, ok := n.(*ast.CallExpr)
					if !ok {
						return true
					}
					callee := calleeOf(tp.Info, call)
					if callee == nil || callee.Pkg() == nil {
						return true
					}
					if !m.Internal(callee.Pkg().Path()) {
						stdKey := callee.Pkg().Path() + ":" + callee.Name()
						if streamStdlibMaterializers[stdKey] == tp.Dir {
							out = append(out, f.diag("streamdiscipline", call.Pos(),
								"%s.%s slurps a whole stream on the serving hot path %s (func %s): proxy writer-first via io.CopyBuffer with a pooled block",
								callee.Pkg().Name(), callee.Name(), tp.Dir, name))
						}
						return true
					}
					key := m.DirOf(callee.Pkg().Path()) + ":" + callee.Name()
					if writer, hit := streamMaterializers[key]; hit {
						out = append(out, f.diag("streamdiscipline", call.Pos(),
							"materializing %s on the serving hot path %s (func %s): stream writer-first via %s",
							calleeDisplay(m, callee), tp.Dir, name, writer))
					}
					return true
				})
			})
		}
		return out
	},
}
