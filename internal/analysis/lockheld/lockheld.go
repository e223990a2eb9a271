// Package lockheld flags calls into blockdev/raid/netblock I/O made while a
// sync.Mutex or sync.RWMutex is (possibly) held.
//
// The simulated device layers complete I/O synchronously today, but the
// netblock transport already blocks on a real socket, and the paper's
// array-of-commodity-SSDs premise is that device latency is the dominant
// cost. Holding a mutex across a Submit/Read/Write call serializes every
// other goroutine behind one device's latency — and against netblock it can
// deadlock outright when the response path needs the same lock.
//
// The analysis is a may-analysis over the CFG: `mu.Lock()`/`mu.RLock()`
// generates a held-fact for that mutex variable, and `mu.Unlock()`/
// `mu.RUnlock()` — whether called directly or deferred — kills it. A call
// whose callee is defined in internal/blockdev, internal/raid or
// internal/netblock (analysis.LockHeldPackages) and looks like I/O
// (Submit, Flush, Trim, Corrupt, Dial, Listen, or a Read*/Write*/Serve*
// method) is reported when any held-fact may be live.
package lockheld

import (
	"go/ast"
	"go/types"
	"sort"
	"strings"

	"srccache/internal/analysis"
	"srccache/internal/analysis/cfg"
)

// Analyzer implements the lockheld check.
var Analyzer = &analysis.Analyzer{
	Name: "lockheld",
	Run:  run,
}

func run(pass *analysis.Pass) error {
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			// Each function, including nested literals, gets its own CFG;
			// the transfer functions below don't descend into literals.
			switch n := n.(type) {
			case *ast.FuncDecl:
				if n.Body != nil {
					checkBody(pass, n.Body)
				}
			case *ast.FuncLit:
				checkBody(pass, n.Body)
			}
			return true
		})
	}
	return nil
}

func checkBody(pass *analysis.Pass, body *ast.BlockStmt) {
	// Function literals are analyzed on their own (they run at another
	// time); don't descend into them from the enclosing body's transfer.
	inspectShallow := func(n ast.Node, fn func(ast.Node) bool) {
		ast.Inspect(n, func(m ast.Node) bool {
			if _, ok := m.(*ast.FuncLit); ok && m != n {
				return false
			}
			return fn(m)
		})
	}

	g := cfg.New(body)
	problem := cfg.Problem{
		Must: false,
		Transfer: func(n ast.Node, facts cfg.Facts) {
			inspectShallow(n, func(m ast.Node) bool {
				// defer mu.Unlock() discharges the obligation for the rest
				// of the function, same as an immediate unlock.
				if d, ok := m.(*ast.DeferStmt); ok {
					if obj, locking := mutexOp(pass, d.Call); obj != nil && !locking {
						delete(facts, obj)
					}
					return true
				}
				call, ok := m.(*ast.CallExpr)
				if !ok {
					return true
				}
				if obj, locking := mutexOp(pass, call); obj != nil {
					if locking {
						facts[obj] = true
					} else {
						delete(facts, obj)
					}
				}
				return true
			})
		},
	}
	ins := cfg.Solve(g, problem)

	cfg.Visit(g, problem, ins, func(n ast.Node, before cfg.Facts) {
		if len(before) == 0 {
			return
		}
		// The facts at the node don't yet include its own Lock calls — a
		// statement that both locks and does I/O is caught only if a lock
		// was already held, which is the honest reading of "across".
		inspectShallow(n, func(m ast.Node) bool {
			call, ok := m.(*ast.CallExpr)
			if !ok {
				return true
			}
			fn := analysis.Callee(pass.TypesInfo, call)
			if fn == nil || !ioCall(fn) {
				return true
			}
			// One report per call site; name the held mutexes in a
			// deterministic order (Facts is a map).
			var held []string
			for k := range before {
				if mu, ok := k.(types.Object); ok {
					held = append(held, mu.Name())
				}
			}
			if len(held) > 0 {
				sort.Strings(held)
				pass.Reportf(call.Pos(),
					"%s.%s called while %s may be held; do not hold locks across blockdev/raid/netblock I/O (//srclint:allow lockheld to override)",
					pkgBase(fn), fn.Name(), strings.Join(held, ", "))
			}
			return true
		})
	})
}

// mutexOp reports whether the call is a Lock/RLock (locking=true) or
// Unlock/RUnlock (locking=false) on a sync.Mutex or sync.RWMutex, returning
// the mutex variable's object. The receiver must resolve to a named object:
// an identifier, or a field selection whose field object identifies the
// mutex (c.mu resolves to the field `mu`, so every method of c shares the
// fact key).
func mutexOp(pass *analysis.Pass, call *ast.CallExpr) (types.Object, bool) {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return nil, false
	}
	var locking bool
	switch sel.Sel.Name {
	case "Lock", "RLock":
		locking = true
	case "Unlock", "RUnlock":
		locking = false
	default:
		return nil, false
	}
	obj := receiverObject(pass, sel.X)
	if obj == nil || !isMutexType(obj.Type()) {
		return nil, false
	}
	return obj, locking
}

// receiverObject resolves the mutex expression to a stable object: plain
// identifiers via Uses/Defs, field selections via the field's object.
func receiverObject(pass *analysis.Pass, e ast.Expr) types.Object {
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		if obj := pass.TypesInfo.Uses[e]; obj != nil {
			return obj
		}
		return pass.TypesInfo.Defs[e]
	case *ast.SelectorExpr:
		if s := pass.TypesInfo.Selections[e]; s != nil {
			return s.Obj()
		}
		return pass.TypesInfo.Uses[e.Sel]
	case *ast.UnaryExpr:
		return receiverObject(pass, e.X)
	}
	return nil
}

// isMutexType reports whether t (possibly behind a pointer) is sync.Mutex
// or sync.RWMutex.
func isMutexType(t types.Type) bool {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	n, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := n.Obj()
	if obj.Pkg() == nil || obj.Pkg().Path() != "sync" {
		return false
	}
	return obj.Name() == "Mutex" || obj.Name() == "RWMutex"
}

// ioCall reports whether fn is an I/O entry point of one of the device or
// transport packages.
func ioCall(fn *types.Func) bool {
	pkg := fn.Pkg()
	if pkg == nil || !analysis.PathMatches(pkg.Path(), analysis.LockHeldPackages) {
		return false
	}
	switch fn.Name() {
	case "Submit", "Flush", "Trim", "Corrupt", "Dial", "Listen":
		return true
	}
	return strings.HasPrefix(fn.Name(), "Read") ||
		strings.HasPrefix(fn.Name(), "Write") ||
		strings.HasPrefix(fn.Name(), "Serve")
}

func pkgBase(fn *types.Func) string {
	if fn.Pkg() != nil {
		return fn.Pkg().Name()
	}
	return "?"
}
