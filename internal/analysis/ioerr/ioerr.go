// Package ioerr holds blockdev and raid I/O errors to being handled.
//
// The paper's recovery and corruption-handling claims (PAPER.md §5) hold
// only if injected device faults propagate to the layer that must react to
// them; a dropped Submit/Flush/ReadBlob error silently turns a failed
// device into a healthy-looking result. Two shapes are flagged:
//
//   - Discarded at the call site: a call used as a bare statement,
//     `go`/`defer` of such a call, or an assignment that sends the error
//     result to the blank identifier.
//   - Bound but unread on some path: `err := dev.Submit(...)` generates an
//     "unchecked" fact in a may-dataflow problem over the function's CFG.
//     Any read of the variable — a nil comparison, a return, wrapping with
//     fmt.Errorf, even capture by a closure — kills it; an explicit blank
//     discard (`_ = err`) is not a read, it only launders the
//     unused-variable compile error. A write with the fact still live is
//     reported (the first error was overwritten unread), as is a fact that
//     reaches the function's exit on any path. Panic paths are exempt: the
//     CFG gives a certain panic no successors.
package ioerr

import (
	"go/ast"
	"go/types"
	"sort"
	"strings"

	"srccache/internal/analysis"
	"srccache/internal/analysis/cfg"
)

// Analyzer implements the ioerr check.
var Analyzer = &analysis.Analyzer{
	Name: "ioerr",
	Run:  run,
}

func run(pass *analysis.Pass) error {
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.ExprStmt:
				checkDiscard(pass, n.X, "discarded")
			case *ast.GoStmt:
				checkDiscard(pass, n.Call, "discarded by go statement")
			case *ast.DeferStmt:
				checkDiscard(pass, n.Call, "discarded by defer")
			case *ast.AssignStmt:
				if len(n.Rhs) == 1 && len(n.Lhs) > 0 && isBlank(n.Lhs[len(n.Lhs)-1]) {
					checkDiscard(pass, n.Rhs[0], "assigned to _")
				}
			case *ast.FuncDecl:
				if n.Body != nil {
					checkPaths(pass, n.Body)
				}
			case *ast.FuncLit:
				checkPaths(pass, n.Body)
			}
			return true
		})
	}
	return nil
}

func isBlank(e ast.Expr) bool {
	id, ok := e.(*ast.Ident)
	return ok && id.Name == "_"
}

// checkDiscard reports a diagnostic if e is a call to an I/O-contract
// method whose trailing error result is being dropped.
func checkDiscard(pass *analysis.Pass, e ast.Expr, how string) {
	call, ok := e.(*ast.CallExpr)
	if !ok {
		return
	}
	fn, recv := contractCall(pass, call)
	if fn == nil {
		return
	}
	pass.Reportf(call.Pos(),
		"error from %s.%s %s; blockdev/raid I/O errors must be handled (//srclint:allow ioerr to override)",
		recvName(recv), fn.Name(), how)
}

// contractCall reports whether call invokes an I/O-contract method — a
// Submit/Flush/Trim/Corrupt or Read*/Write* method with a trailing error
// result, defined in (or on a type of) internal/blockdev or internal/raid.
// It returns the method and the receiver type, or nil when the call is
// outside the contract. Interface calls through blockdev.Device match via
// the method's package even when the dynamic implementation lives
// elsewhere.
func contractCall(pass *analysis.Pass, call *ast.CallExpr) (*types.Func, types.Type) {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return nil, nil
	}
	s := pass.TypesInfo.Selections[sel]
	if s == nil || s.Kind() != types.MethodVal {
		return nil, nil
	}
	fn, ok := s.Obj().(*types.Func)
	if !ok || !contractMethod(fn.Name()) {
		return nil, nil
	}
	sig := fn.Type().(*types.Signature)
	if sig.Results().Len() == 0 || !isErrorType(sig.Results().At(sig.Results().Len()-1).Type()) {
		return nil, nil
	}
	inContract := fn.Pkg() != nil && analysis.PathMatches(fn.Pkg().Path(), analysis.IOErrPackages)
	if n := namedOf(s.Recv()); !inContract && n != nil && n.Obj().Pkg() != nil {
		inContract = analysis.PathMatches(n.Obj().Pkg().Path(), analysis.IOErrPackages)
	}
	if !inContract {
		return nil, nil
	}
	return fn, s.Recv()
}

// contractMethod reports whether the method name falls under the I/O-error
// contract.
func contractMethod(name string) bool {
	switch name {
	case "Submit", "Flush", "Trim", "Corrupt":
		return true
	}
	return strings.HasPrefix(name, "Read") || strings.HasPrefix(name, "Write")
}

func isErrorType(t types.Type) bool {
	return types.Identical(t, types.Universe.Lookup("error").Type())
}

func namedOf(t types.Type) *types.Named {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	n, _ := t.(*types.Named)
	return n
}

func recvName(t types.Type) string {
	if n := namedOf(t); n != nil {
		return n.Obj().Name()
	}
	return t.String()
}

// ---- bound but unread on some path ---------------------------------------

// site is one error-producing assignment under watch.
type site struct {
	assign *ast.AssignStmt
	obj    types.Object // the error variable
	fn     *types.Func  // the I/O method that produced it
	recv   types.Type
}

func checkPaths(pass *analysis.Pass, body *ast.BlockStmt) {
	// Pre-scan the body for gen sites so the transfer function is cheap on
	// the solver's hot path.
	sites := make(map[ast.Node]*site)
	ast.Inspect(body, func(n ast.Node) bool {
		if a, ok := n.(*ast.AssignStmt); ok {
			if s := genSite(pass, a); s != nil {
				sites[a] = s
			}
		}
		return true
	})
	if len(sites) == 0 {
		return
	}

	g := cfg.New(body)
	problem := cfg.Problem{
		Must: false,
		Transfer: func(n ast.Node, facts cfg.Facts) {
			reads, writes := usesIn(pass, n)
			for k := range facts {
				s := k.(*site)
				if reads[s.obj] || writes[s.obj] {
					delete(facts, k)
				}
			}
			if s := sites[n]; s != nil {
				facts[s] = true
			}
		},
	}
	ins := cfg.Solve(g, problem)

	var hit []*site
	cfg.Visit(g, problem, ins, func(n ast.Node, before cfg.Facts) {
		if len(before) == 0 {
			return
		}
		reads, writes := usesIn(pass, n)
		for k := range before {
			if s := k.(*site); writes[s.obj] && !reads[s.obj] {
				hit = append(hit, s) // overwritten unread
			}
		}
	})
	for k := range cfg.ExitFacts(g, ins) {
		hit = append(hit, k.(*site)) // leaked to the exit
	}
	sort.Slice(hit, func(i, j int) bool { return hit[i].assign.Pos() < hit[j].assign.Pos() })
	for i, s := range hit {
		if i > 0 && hit[i-1] == s {
			continue
		}
		pass.Reportf(s.assign.Pos(),
			"error from %s.%s assigned to %s is never read on at least one path; blockdev/raid I/O errors must be handled (//srclint:allow ioerr to override)",
			recvName(s.recv), s.fn.Name(), s.obj.Name())
	}
}

// genSite reports whether the assignment binds the error of a contract I/O
// call to a named variable: a single-call RHS whose trailing error lands in
// a non-blank identifier.
func genSite(pass *analysis.Pass, a *ast.AssignStmt) *site {
	if len(a.Rhs) != 1 || len(a.Lhs) == 0 {
		return nil
	}
	call, ok := ast.Unparen(a.Rhs[0]).(*ast.CallExpr)
	if !ok {
		return nil
	}
	fn, recv := contractCall(pass, call)
	if fn == nil {
		return nil
	}
	id, ok := a.Lhs[len(a.Lhs)-1].(*ast.Ident)
	if !ok || id.Name == "_" {
		return nil
	}
	obj := pass.TypesInfo.ObjectOf(id)
	if obj == nil || !isErrorType(obj.Type()) {
		return nil
	}
	return &site{assign: a, obj: obj, fn: fn, recv: recv}
}

// usesIn classifies every identifier occurrence inside n (including inside
// function literals — capturing an error counts as reading it): reads are
// rvalue uses, writes are assignment targets. An explicit blank discard
// (`_ = err`) is neither: it silences the compiler's unused-variable check
// without looking at the error, which is exactly the laundering shape this
// check exists to catch.
func usesIn(pass *analysis.Pass, n ast.Node) (reads, writes map[types.Object]bool) {
	reads = make(map[types.Object]bool)
	writes = make(map[types.Object]bool)
	lhs := make(map[*ast.Ident]bool)
	discard := make(map[*ast.Ident]bool)
	ast.Inspect(n, func(m ast.Node) bool {
		a, ok := m.(*ast.AssignStmt)
		if !ok {
			return true
		}
		allBlank := true
		for _, l := range a.Lhs {
			id, ok := ast.Unparen(l).(*ast.Ident)
			if ok {
				lhs[id] = true
			}
			allBlank = allBlank && ok && id.Name == "_"
		}
		if allBlank && len(a.Rhs) == 1 {
			if id, ok := ast.Unparen(a.Rhs[0]).(*ast.Ident); ok {
				discard[id] = true
			}
		}
		return true
	})
	ast.Inspect(n, func(m ast.Node) bool {
		id, ok := m.(*ast.Ident)
		if !ok {
			return true
		}
		obj := pass.TypesInfo.ObjectOf(id)
		switch {
		case obj == nil, discard[id]:
			// nothing, or neither a read nor a write
		case lhs[id]:
			writes[obj] = true
		default:
			reads[obj] = true
		}
		return true
	})
	return reads, writes
}
