// Package flushepoch enforces the flush-epoch contract (DESIGN.md §8/§9)
// statically: a function annotated
//
//	//srclint:contract flush
//
// in its doc comment must reach a recognized drain/flush call on every
// control-flow path to a return that can report success. This is the static
// form of the three durability bugs PR 3's chaos harness found dynamically —
// a code path that commits the destruction of an old durable record (a
// reclaimed group reused, a rebuilt summary holding holes) and returns
// without draining the replacement copies into the same flush epoch.
//
// Recognized drain/flush calls are, by name: any function or method whose
// name starts with "drain" or "flush" (case-insensitive, so drainDirty,
// flushSSDs, Flush and Drain all count) or is "Sync"; plus any call to a
// same-package function that itself carries the //srclint:contract flush
// annotation, so the contract composes across helpers.
//
// Error-propagation returns are exempt: a return whose trailing error
// operand is definitely non-nil — an error constructed by fmt.Errorf or
// errors.New/Join, a package-level error variable, or a local guarded by an
// enclosing `if err != nil` (or the else branch of `if err == nil`) — is a
// failure path, and failure paths owe nothing to the flush epoch. Every
// other return (a literal nil error, an unguarded local, a naked return, or
// any return of a function without a trailing error result) must carry the
// must-fact "a drain/flush has executed on every path here".
package flushepoch

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"srccache/internal/analysis"
	"srccache/internal/analysis/cfg"
)

// Analyzer implements the flushepoch check.
var Analyzer = &analysis.Analyzer{
	Name: "flushepoch",
	Doc:  "//srclint:contract flush functions must drain/flush on every path to a success return",
	Run:  run,
}

// drained is the singleton must-fact: a recognized drain/flush call has
// executed on every path to this point.
type drained struct{}

func run(pass *analysis.Pass) error {
	// First collect the package's annotated functions, so that calling one
	// satisfies the contract in another.
	annotated := make(map[types.Object]bool)
	var funcs []*ast.FuncDecl
	for _, f := range pass.Files {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			if hasContract(fd, "flush") {
				funcs = append(funcs, fd)
				if obj := pass.TypesInfo.Defs[fd.Name]; obj != nil {
					annotated[obj] = true
				}
			}
		}
	}
	for _, fd := range funcs {
		checkFunc(pass, fd, annotated)
	}
	return nil
}

// hasContract reports whether the function's doc comment carries
// //srclint:contract <name>.
func hasContract(fd *ast.FuncDecl, name string) bool {
	args, ok := analysis.Directive(fd.Doc, "contract")
	fields := strings.Fields(args)
	return ok && len(fields) > 0 && fields[0] == name
}

func checkFunc(pass *analysis.Pass, fd *ast.FuncDecl, annotated map[types.Object]bool) {
	g := cfg.New(fd.Body)
	problem := cfg.Problem{
		Must: true,
		Transfer: func(n ast.Node, facts cfg.Facts) {
			if containsDrain(pass, n, annotated) {
				facts[drained{}] = true
			}
		},
	}
	ins := cfg.Solve(g, problem)

	parents := parentMap(fd.Body)
	errResult := trailingErrorResult(pass, fd)

	cfg.Visit(g, problem, ins, func(n ast.Node, before cfg.Facts) {
		ret, ok := n.(*ast.ReturnStmt)
		if !ok {
			return
		}
		// The return's own expressions run before the function returns: a
		// tail call like `return c.Flush(at)` satisfies the contract.
		if before[drained{}] || containsDrain(pass, ret, annotated) {
			return
		}
		if errResult && exemptErrorReturn(pass, ret, parents) {
			return
		}
		pass.Reportf(ret.Pos(),
			"return without drain/flush in //srclint:contract flush function %s; destroyed durable records and their replacements must commit in the same flush epoch (//srclint:allow flushepoch to override)",
			fd.Name.Name)
	})

	// A function without results can also fall off the end.
	if fd.Type.Results == nil || len(fd.Type.Results.List) == 0 {
		if exit := cfg.ExitFacts(g, ins); exit != nil && !exit[drained{}] {
			if fellOffEnd(g, ins) {
				pass.Reportf(fd.Body.Rbrace,
					"control falls off the end of //srclint:contract flush function %s without a drain/flush call (//srclint:allow flushepoch to override)",
					fd.Name.Name)
			}
		}
	}
}

// fellOffEnd reports whether Exit has a reachable predecessor that is not a
// return statement (the implicit return at the closing brace).
func fellOffEnd(g *cfg.Graph, ins map[*cfg.Block]cfg.Facts) bool {
	for _, blk := range g.Blocks {
		if _, reachable := ins[blk]; !reachable {
			continue
		}
		for _, s := range blk.Succs {
			if s != g.Exit {
				continue
			}
			if len(blk.Nodes) == 0 {
				return true
			}
			last := blk.Nodes[len(blk.Nodes)-1]
			switch last.(type) {
			case *ast.ReturnStmt:
			case *ast.BranchStmt:
				// break/continue resolved to Exit only in malformed code.
			default:
				return true
			}
		}
	}
	return false
}

// containsDrain reports whether a recognized drain/flush call occurs
// anywhere inside n (excluding nested function literals, whose bodies run
// at another time).
func containsDrain(pass *analysis.Pass, n ast.Node, annotated map[types.Object]bool) bool {
	found := false
	ast.Inspect(n, func(m ast.Node) bool {
		if found {
			return false
		}
		if _, ok := m.(*ast.FuncLit); ok {
			return false
		}
		call, ok := m.(*ast.CallExpr)
		if !ok {
			return true
		}
		if fn := analysis.Callee(pass.TypesInfo, call); fn != nil {
			if drainName(fn.Name()) || annotated[fn] {
				found = true
				return false
			}
		}
		return true
	})
	return found
}

// drainName reports whether a callee name denotes a drain/flush operation.
func drainName(name string) bool {
	lower := strings.ToLower(name)
	return strings.HasPrefix(lower, "drain") ||
		strings.HasPrefix(lower, "flush") ||
		name == "Sync"
}

// trailingErrorResult reports whether the function's last result is of type
// error.
func trailingErrorResult(pass *analysis.Pass, fd *ast.FuncDecl) bool {
	sig, ok := pass.TypesInfo.Defs[fd.Name].Type().(*types.Signature)
	if !ok || sig.Results().Len() == 0 {
		return false
	}
	last := sig.Results().At(sig.Results().Len() - 1).Type()
	return types.Identical(last, types.Universe.Lookup("error").Type())
}

// exemptErrorReturn reports whether ret is an error-propagation return: its
// trailing operand is definitely non-nil, so the function is reporting
// failure and the flush-epoch obligation does not apply. A naked return or
// an explicit nil is never exempt.
func exemptErrorReturn(pass *analysis.Pass, ret *ast.ReturnStmt, parents map[ast.Node]ast.Node) bool {
	if len(ret.Results) == 0 {
		return false // naked return: the named error may well be nil
	}
	last := ast.Unparen(ret.Results[len(ret.Results)-1])
	switch e := last.(type) {
	case *ast.CallExpr:
		return errorConstructor(pass, e)
	case *ast.Ident:
		obj := pass.TypesInfo.Uses[e]
		if obj == nil {
			return false
		}
		if e.Name == "nil" {
			return false
		}
		// A package-level error variable (ErrNoFreeGroups and friends) is
		// non-nil by convention.
		if v, ok := obj.(*types.Var); ok && v.Parent() == v.Pkg().Scope() {
			return true
		}
		return guardedNonNil(pass, ret, obj, parents)
	case *ast.SelectorExpr:
		// pkg.ErrSomething or struct field holding a sentinel: exempt only
		// for package-qualified variables.
		if id, ok := e.X.(*ast.Ident); ok {
			if _, isPkg := pass.TypesInfo.Uses[id].(*types.PkgName); isPkg {
				return true
			}
		}
	}
	return false
}

// errorConstructor reports whether the call builds a (non-nil) error:
// fmt.Errorf, errors.New, errors.Join.
func errorConstructor(pass *analysis.Pass, call *ast.CallExpr) bool {
	fn := analysis.Callee(pass.TypesInfo, call)
	if fn == nil || fn.Pkg() == nil {
		return false
	}
	switch fn.Pkg().Path() {
	case "fmt":
		return fn.Name() == "Errorf"
	case "errors":
		return fn.Name() == "New" || fn.Name() == "Join"
	}
	return false
}

// guardedNonNil reports whether the return sits in a branch that proves obj
// non-nil: the then-branch of an if whose condition conjoins `obj != nil`,
// or the else-branch of one conjoining... (only the != form guards the
// then-branch; the == form guards the else-branch).
func guardedNonNil(pass *analysis.Pass, ret ast.Node, obj types.Object, parents map[ast.Node]ast.Node) bool {
	for n := ret; n != nil; n = parents[n] {
		ifStmt, ok := parents[n].(*ast.IfStmt)
		if !ok {
			continue
		}
		inThen := ifStmt.Body == n
		inElse := ifStmt.Else == n
		if !inThen && !inElse {
			continue // we climbed out via Init or Cond
		}
		if inThen && condProvesNonNil(pass, ifStmt.Cond, obj, token.NEQ) {
			return true
		}
		if inElse && condProvesNonNil(pass, ifStmt.Cond, obj, token.EQL) {
			return true
		}
	}
	return false
}

// condProvesNonNil reports whether cond, taken as true (op==NEQ) or false
// (op==EQL), proves obj != nil. Conjunctions propagate the then-guarantee;
// disjunctions propagate the else-guarantee.
func condProvesNonNil(pass *analysis.Pass, cond ast.Expr, obj types.Object, op token.Token) bool {
	cond = ast.Unparen(cond)
	be, ok := cond.(*ast.BinaryExpr)
	if !ok {
		return false
	}
	switch {
	case be.Op == op:
		return nilComparison(pass, be, obj)
	case op == token.NEQ && be.Op == token.LAND,
		op == token.EQL && be.Op == token.LOR:
		return condProvesNonNil(pass, be.X, obj, op) ||
			condProvesNonNil(pass, be.Y, obj, op)
	}
	return false
}

// nilComparison reports whether the comparison is between obj and nil.
func nilComparison(pass *analysis.Pass, be *ast.BinaryExpr, obj types.Object) bool {
	isObj := func(e ast.Expr) bool {
		id, ok := ast.Unparen(e).(*ast.Ident)
		return ok && pass.TypesInfo.Uses[id] == obj
	}
	isNil := func(e ast.Expr) bool {
		id, ok := ast.Unparen(e).(*ast.Ident)
		return ok && id.Name == "nil"
	}
	return (isObj(be.X) && isNil(be.Y)) || (isNil(be.X) && isObj(be.Y))
}

// parentMap records each node's syntactic parent within root.
func parentMap(root ast.Node) map[ast.Node]ast.Node {
	parents := make(map[ast.Node]ast.Node)
	var stack []ast.Node
	ast.Inspect(root, func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return true
		}
		if len(stack) > 0 {
			parents[n] = stack[len(stack)-1]
		}
		stack = append(stack, n)
		return true
	})
	return parents
}
