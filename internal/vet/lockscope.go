package vet

import (
	"go/ast"
	"go/token"
	"go/types"
)

// lockSpans are the concurrent packages where holding a mutex across a
// blocking operation turns one slow peer into a pile-up: each edge's
// failure detector, the router's coalescer, the transport scheduler,
// the store's shards and the serving tiers all sit on request hot paths.
var lockSpans = []string{
	"internal/cluster",
	"internal/transport",
	"internal/serve",
	"internal/dash",
	"internal/obs",
	"internal/live",
}

// LockScope flags blocking operations — network I/O, channel sends and
// receives, selects without a default, time.Sleep, sync waits, and
// ChunkSource.Chunk synthesis calls — executed while a sync.Mutex or
// sync.RWMutex is held. Locks are keyed off resolved types (a method
// promoted through embedding still counts), and held-ness is tracked in
// source order: an Unlock on the fall-through path releases, a
// deferred Unlock holds to the end of the function. Branch bodies are
// analyzed with a copy of the held set, so an early-return Unlock
// inside an if does not leak a release into the fall-through path.
// Function literals run later and are analyzed separately with an
// empty held set.
var LockScope = &Analyzer{
	Name: "lockscope",
	Doc:  "forbid blocking operations (I/O, channel ops, synthesis) while a sync mutex is held",
	CheckModule: func(m *Module) []Diagnostic {
		var out []Diagnostic
		chunkSource := lookupChunkSource(m)
		eachFunc(m, lockSpans, func(tp *TypedPackage, f *File, name string, fd *ast.FuncDecl) {
			if fd.Body == nil {
				return
			}
			w := &lockWalker{m: m, tp: tp, f: f, fn: name, chunkSource: chunkSource}
			w.walkBody(fd.Body)
			out = append(out, w.diags...)
		})
		return out
	},
}

// lookupChunkSource resolves the module's dash.ChunkSource interface,
// or nil when the module under analysis doesn't define it (fixture
// mini-modules).
func lookupChunkSource(m *Module) *types.Interface {
	tp := m.ByDir("internal/dash")
	if tp == nil {
		return nil
	}
	obj := tp.Pkg.Scope().Lookup("ChunkSource")
	if obj == nil {
		return nil
	}
	iface, _ := obj.Type().Underlying().(*types.Interface)
	return iface
}

// lockWalker tracks the set of held mutexes through one function body
// in source order. Bodies of nested function literals are queued and
// walked with a fresh empty held set.
type lockWalker struct {
	m           *Module
	tp          *TypedPackage
	f           *File
	fn          string
	chunkSource *types.Interface
	diags       []Diagnostic
}

func (w *lockWalker) walkBody(body *ast.BlockStmt) {
	held := map[string]bool{}
	w.stmts(body.List, held)
}

// stmts processes a statement list in order, mutating held as locks
// are taken and released on the fall-through path.
func (w *lockWalker) stmts(list []ast.Stmt, held map[string]bool) {
	for _, s := range list {
		w.stmt(s, held)
	}
}

func copyHeld(held map[string]bool) map[string]bool {
	c := make(map[string]bool, len(held))
	for k := range held {
		c[k] = true
	}
	return c
}

func (w *lockWalker) stmt(s ast.Stmt, held map[string]bool) {
	switch s := s.(type) {
	case *ast.ExprStmt:
		if key, locks, ok := w.lockOp(s.X); ok {
			if locks {
				held[key] = true
			} else {
				delete(held, key)
			}
			return
		}
		w.expr(s.X, held)
	case *ast.DeferStmt:
		// A deferred Unlock releases at return, not here: the lock stays
		// held for the rest of the walk. The defer's own args are
		// evaluated now, but Unlock takes none.
		if _, locks, ok := w.lockOp(s.Call); ok && !locks {
			return
		}
		w.expr(s.Call, held)
	case *ast.GoStmt:
		// The spawned body runs without this goroutine's locks; only the
		// call's arguments are evaluated here.
		for _, a := range s.Call.Args {
			w.expr(a, held)
		}
		if fl, ok := ast.Unparen(s.Call.Fun).(*ast.FuncLit); ok {
			w.walkBody(fl.Body)
		}
	case *ast.SendStmt:
		w.blocking(s.Pos(), "channel send", held)
		w.expr(s.Chan, held)
		w.expr(s.Value, held)
	case *ast.AssignStmt:
		for _, e := range s.Rhs {
			w.expr(e, held)
		}
		for _, e := range s.Lhs {
			w.expr(e, held)
		}
	case *ast.DeclStmt:
		ast.Inspect(s, func(n ast.Node) bool {
			if e, ok := n.(ast.Expr); ok {
				w.expr(e, held)
				return false
			}
			return true
		})
	case *ast.ReturnStmt:
		for _, e := range s.Results {
			w.expr(e, held)
		}
	case *ast.IfStmt:
		if s.Init != nil {
			w.stmt(s.Init, held)
		}
		w.expr(s.Cond, held)
		w.stmts(s.Body.List, copyHeld(held))
		if s.Else != nil {
			w.stmt(s.Else, copyHeld(held))
		}
	case *ast.BlockStmt:
		w.stmts(s.List, held)
	case *ast.ForStmt:
		if s.Init != nil {
			w.stmt(s.Init, held)
		}
		if s.Cond != nil {
			w.expr(s.Cond, held)
		}
		body := copyHeld(held)
		w.stmts(s.Body.List, body)
		if s.Post != nil {
			w.stmt(s.Post, body)
		}
	case *ast.RangeStmt:
		if tv, ok := w.tp.Info.Types[s.X]; ok {
			if _, isChan := tv.Type.Underlying().(*types.Chan); isChan {
				w.blocking(s.X.Pos(), "range over channel", held)
			}
		}
		w.expr(s.X, held)
		w.stmts(s.Body.List, copyHeld(held))
	case *ast.SwitchStmt:
		if s.Init != nil {
			w.stmt(s.Init, held)
		}
		if s.Tag != nil {
			w.expr(s.Tag, held)
		}
		for _, c := range s.Body.List {
			if cc, ok := c.(*ast.CaseClause); ok {
				for _, e := range cc.List {
					w.expr(e, held)
				}
				w.stmts(cc.Body, copyHeld(held))
			}
		}
	case *ast.TypeSwitchStmt:
		if s.Init != nil {
			w.stmt(s.Init, held)
		}
		for _, c := range s.Body.List {
			if cc, ok := c.(*ast.CaseClause); ok {
				w.stmts(cc.Body, copyHeld(held))
			}
		}
	case *ast.SelectStmt:
		hasDefault := false
		for _, c := range s.Body.List {
			if cc, ok := c.(*ast.CommClause); ok && cc.Comm == nil {
				hasDefault = true
			}
		}
		if !hasDefault {
			w.blocking(s.Pos(), "select without default", held)
		}
		for _, c := range s.Body.List {
			if cc, ok := c.(*ast.CommClause); ok {
				w.stmts(cc.Body, copyHeld(held))
			}
		}
	case *ast.LabeledStmt:
		w.stmt(s.Stmt, held)
	}
}

// expr scans one expression for blocking operations under the current
// held set. Function literals are walked separately with a fresh set.
func (w *lockWalker) expr(e ast.Expr, held map[string]bool) {
	if e == nil {
		return
	}
	ast.Inspect(e, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			w.walkBody(n.Body)
			return false
		case *ast.UnaryExpr:
			if n.Op.String() == "<-" {
				w.blocking(n.Pos(), "channel receive", held)
			}
		case *ast.CallExpr:
			if desc, ok := w.blockingCall(n); ok {
				w.blocking(n.Pos(), desc, held)
			}
		}
		return true
	})
}

// lockOp matches expr as a Lock/RLock/Unlock/RUnlock call on a
// sync.Mutex or sync.RWMutex and returns the lock's key (the rendered
// receiver expression) and whether it acquires.
func (w *lockWalker) lockOp(e ast.Expr) (key string, locks, ok bool) {
	call, isCall := ast.Unparen(e).(*ast.CallExpr)
	if !isCall {
		return "", false, false
	}
	callee := calleeOf(w.tp.Info, call)
	if callee == nil || callee.Pkg() == nil || callee.Pkg().Path() != "sync" {
		return "", false, false
	}
	switch callee.Name() {
	case "Lock", "RLock":
		locks = true
	case "Unlock", "RUnlock":
	default:
		return "", false, false
	}
	sel, isSel := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !isSel {
		return "", false, false
	}
	return types.ExprString(sel.X), locks, true
}

// blockingCall classifies a call as blocking: direct network I/O (the
// net and net/http packages, including net.Conn method calls),
// time.Sleep, sync waits (WaitGroup.Wait, Cond.Wait), and chunk
// synthesis through the dash.ChunkSource interface.
func (w *lockWalker) blockingCall(call *ast.CallExpr) (string, bool) {
	callee := calleeOf(w.tp.Info, call)
	if callee == nil || callee.Pkg() == nil {
		return "", false
	}
	switch callee.Pkg().Path() {
	case "net", "net/http":
		return "network I/O (" + callee.Pkg().Name() + "." + typedDisplayName(callee) + ")", true
	case "time":
		if callee.Name() == "Sleep" {
			return "time.Sleep", true
		}
	case "sync":
		if callee.Name() == "Wait" {
			return "sync." + typedDisplayName(callee), true
		}
	}
	if w.chunkSource != nil && callee.Name() == "Chunk" {
		if sig, ok := callee.Type().(*types.Signature); ok && sig.Recv() != nil {
			t := sig.Recv().Type()
			if types.Implements(t, w.chunkSource) ||
				types.Implements(types.NewPointer(t), w.chunkSource) {
				return "ChunkSource.Chunk synthesis", true
			}
		}
	}
	return "", false
}

// blocking records a finding when any lock is held.
func (w *lockWalker) blocking(pos token.Pos, desc string, held map[string]bool) {
	if len(held) == 0 {
		return
	}
	var lock string
	for k := range held {
		if lock == "" || k < lock {
			lock = k
		}
	}
	w.diags = append(w.diags, w.f.diag("lockscope", pos,
		"%s while %s is locked (func %s): release the lock first, or move the blocking work outside the critical section",
		desc, lock, w.fn))
}
