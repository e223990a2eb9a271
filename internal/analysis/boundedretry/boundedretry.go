// Package boundedretry enforces DESIGN.md §8 rule 10: a retry/reconnect
// loop must consult a budget, limit, or deadline on every back edge — a
// loop that redials a dead peer forever turns one crashed node into a hung
// caller.
//
// A candidate loop is a non-range `for` statement whose body calls a
// dial-shaped function: one whose name starts with dial/connect/redial/
// reconnect/accept, or a same-package function whose body calls such a
// function directly (a thin wrapper around a dialer). Loops whose
// condition already contains an ordered comparison (`for i := 0; i < n;
// i++`) are bounded by construction.
//
// For the rest, a must-dataflow analysis over the loop body's CFG starts
// every iteration with no facts and marks "consulted" at ordered
// comparisons, calls to budget/deadline-shaped functions (by name, or a
// same-package function whose body calls one directly), channel receives,
// and select statements. Every back edge — a fall-off-the-end block or a
// `continue` — must carry the consulted fact; `break` and `return` edges
// leave the loop and are exempt.
package boundedretry

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"srccache/internal/analysis"
	"srccache/internal/analysis/cfg"
)

// Analyzer is the boundedretry check.
var Analyzer = &analysis.Analyzer{
	Name: "boundedretry",
	Doc:  "retry/reconnect loops must consult a budget, limit, or deadline on every back edge",
	Run:  run,
}

func run(pass *analysis.Pass) error {
	c := &checker{pass: pass}
	for _, f := range pass.Files {
		name := pass.Fset.Position(f.Pos()).Filename
		if strings.HasSuffix(name, "_test.go") {
			// Tests may spin on a local fixture; the contract binds
			// production reconnect paths.
			continue
		}
		ast.Inspect(f, func(x ast.Node) bool {
			if loop, ok := x.(*ast.ForStmt); ok {
				c.checkLoop(loop)
			}
			return true
		})
	}
	return nil
}

type checker struct {
	pass  *analysis.Pass
	decls map[types.Object]*ast.FuncDecl // the package's functions, built on first lookup
}

func (c *checker) checkLoop(loop *ast.ForStmt) {
	if loop.Cond != nil && containsOrderedCmp(loop.Cond) {
		return // bounded by the loop condition itself
	}
	dial, name := c.findDialCall(loop.Body)
	if dial == nil {
		return
	}
	g := cfg.New(loop.Body)
	ins := cfg.Solve(g, cfg.Problem{Must: true, Transfer: c.consultTransfer})
	for _, blk := range g.Blocks {
		in, reachable := ins[blk]
		if !reachable || !edgesTo(blk, g.Exit) || !backEdge(blk) {
			continue
		}
		facts := cfg.Facts{}
		for k := range in {
			facts[k] = true
		}
		for _, n := range blk.Nodes {
			c.consultTransfer(n, facts)
		}
		if !facts[consultedKey{}] {
			c.pass.Reportf(loop.For,
				"retry loop calls %s but a back edge consults no budget, limit, or deadline — bound the retries or block on a cancellation channel",
				name)
			return // one diagnostic per loop
		}
	}
}

// findDialCall returns the first dial-shaped call in the loop body
// (nested function literals excluded — their bodies run on their own
// schedule) along with the callee's name for the diagnostic.
func (c *checker) findDialCall(body *ast.BlockStmt) (found *ast.CallExpr, name string) {
	ast.Inspect(body, func(x ast.Node) bool {
		if found != nil {
			return false
		}
		if _, ok := x.(*ast.FuncLit); ok {
			return false
		}
		if call, ok := x.(*ast.CallExpr); ok && c.shaped(call, dialishName) {
			found, name = call, calleeName(call)
			return false
		}
		return true
	})
	return found, name
}

// shaped reports whether a call matches by its callee's name, or calls a
// function of this package whose body directly calls a matching one.
func (c *checker) shaped(call *ast.CallExpr, match func(string) bool) bool {
	if match(calleeName(call)) {
		return true
	}
	fn := analysis.Callee(c.pass.TypesInfo, call)
	if fn == nil || fn.Pkg() != c.pass.Pkg {
		return false
	}
	if c.decls == nil {
		c.decls = make(map[types.Object]*ast.FuncDecl)
		for _, f := range c.pass.Files {
			for _, d := range f.Decls {
				if fd, ok := d.(*ast.FuncDecl); ok && fd.Body != nil {
					c.decls[c.pass.TypesInfo.Defs[fd.Name]] = fd
				}
			}
		}
	}
	fd := c.decls[fn]
	if fd == nil {
		return false
	}
	direct := false
	ast.Inspect(fd.Body, func(x ast.Node) bool {
		if _, ok := x.(*ast.FuncLit); ok || direct {
			return false
		}
		if inner, ok := x.(*ast.CallExpr); ok && match(calleeName(inner)) {
			direct = true
		}
		return !direct
	})
	return direct
}

// calleeName is the name a call spells its callee with: the identifier or
// the selector's final name ("Accept" for lis.Accept()).
func calleeName(call *ast.CallExpr) string {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		return fun.Name
	case *ast.SelectorExpr:
		return fun.Sel.Name
	}
	return ""
}

func dialishName(name string) bool {
	l := strings.ToLower(name)
	for _, p := range []string{"dial", "connect", "redial", "reconnect", "accept"} {
		if strings.HasPrefix(l, p) {
			return true
		}
	}
	return false
}

func budgetishName(name string) bool {
	l := strings.ToLower(name)
	return strings.Contains(l, "budget") || strings.Contains(l, "deadline")
}

// ---- the must-dataflow problem ------------------------------------------

// consultedKey is the single dataflow fact: "a budget, limit, or deadline
// was consulted since this iteration began". The problem's Entry set is
// empty: a consultation before the loop must not leak into iterations.
type consultedKey struct{}

func (c *checker) consultTransfer(n ast.Node, facts cfg.Facts) {
	if consults(c, n) {
		facts[consultedKey{}] = true
	}
}

// consults reports whether a CFG node contains a budget consultation:
// an ordered comparison, a budget/deadline call, or a channel receive
// (blocking on a ticker/cancellation channel paces the loop and observes
// shutdown). Nested function literals do not count — they run elsewhere.
func consults(c *checker, n ast.Node) bool {
	found := false
	ast.Inspect(n, func(x ast.Node) bool {
		if found {
			return false
		}
		switch x := x.(type) {
		case *ast.FuncLit:
			return false
		case *ast.BinaryExpr:
			if isOrderedOp(x.Op) {
				found = true
				return false
			}
		case *ast.UnaryExpr:
			if x.Op == token.ARROW {
				found = true
				return false
			}
		case *ast.CallExpr:
			if c.shaped(x, budgetishName) {
				found = true
				return false
			}
		}
		return true
	})
	return found
}

func containsOrderedCmp(e ast.Expr) bool {
	found := false
	ast.Inspect(e, func(x ast.Node) bool {
		if b, ok := x.(*ast.BinaryExpr); ok && isOrderedOp(b.Op) {
			found = true
			return false
		}
		return !found
	})
	return found
}

func isOrderedOp(op token.Token) bool {
	switch op {
	case token.LSS, token.LEQ, token.GTR, token.GEQ:
		return true
	}
	return false
}

func edgesTo(blk, exit *cfg.Block) bool {
	for _, s := range blk.Succs {
		if s == exit {
			return true
		}
	}
	return false
}

// backEdge classifies an Exit-predecessor of a loop-body CFG: the body is
// built standalone, so break/continue/return all edge to Exit, and the
// block's final node tells them apart. Fall-off-the-end (no trailing
// branch) and `continue` re-enter the loop; `break`, `goto` and `return`
// leave it.
func backEdge(blk *cfg.Block) bool {
	if len(blk.Nodes) == 0 {
		return true // empty join block falling off the end
	}
	switch last := blk.Nodes[len(blk.Nodes)-1].(type) {
	case *ast.ReturnStmt:
		return false
	case *ast.BranchStmt:
		return last.Tok == token.CONTINUE
	}
	return true
}
