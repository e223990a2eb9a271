// Package staleepoch enforces the cluster routing protocol's stale-epoch
// contract (DESIGN.md §8 rule 9): inside the cluster packages, any call
// that can surface a stale-epoch contract error (netblock.ErrStaleEpoch,
// cluster.ErrStaleEpoch) must reach a table-refetch/retry handler.
//
// Surfacing is modular: a function surfaces a contract when it is
// annotated //srclint:surfaces <contract>, or when its body constructs the
// contract error (a package-level error var annotated
// //srclint:contracterr <contract>, possibly imported — resolved through
// package facts). A call to a surfacing function is satisfied when one of:
//
//  1. the enclosing declaration is itself annotated (or inferred)
//     //srclint:surfaces for that contract — responsibility passes to its
//     callers;
//  2. a guard `errors.Is(err, <contract error>)` is forward-reachable from
//     the call in the function's CFG, and from the guard a handler — a
//     call whose name starts with refresh/refetch, or whose facts carry
//     //srclint:handles — is forward-reachable in turn;
//  3. the call sits in a function literal passed directly as an argument
//     to a call whose callee is annotated //srclint:handles for the
//     contract (the fleet's tryOwners closure shape).
//
// //srclint:handles annotations are verified, not trusted: the annotated
// body must itself contain the guard and a refetch/refresh call reachable
// from it, so a handler cannot rot into a pass-through.
package staleepoch

import (
	"go/ast"
	"go/types"
	"strings"

	"srccache/internal/analysis"
	"srccache/internal/analysis/callgraph"
	"srccache/internal/analysis/cfg"
	"srccache/internal/analysis/modfacts"
)

// Analyzer is the staleepoch check.
var Analyzer = &analysis.Analyzer{
	Name: "staleepoch",
	Doc:  "calls that can surface a stale-epoch contract error must reach a table-refetch/retry handler (cluster packages)",
	Run:  run,
}

func run(pass *analysis.Pass) error {
	if !analysis.PathMatches(pass.Pkg.Path(), analysis.ClusterPackages) {
		return nil
	}
	files := nonTestFiles(pass)
	if len(files) == 0 {
		return nil
	}
	own := ownFacts(pass, files)
	g := callgraph.Build(pass.Fset, files, pass.TypesInfo)
	contracts := modfacts.ContractErrorVars(files, pass.TypesInfo)

	c := &checker{pass: pass, g: g, own: own, contracts: contracts}
	for _, n := range g.Nodes {
		c.checkNode(n)
	}
	for _, n := range g.Nodes {
		c.verifyHandles(n)
	}
	return nil
}

// nonTestFiles drops _test.go files: test code drives the protocol from
// outside and legitimately pokes at stale states.
func nonTestFiles(pass *analysis.Pass) []*ast.File {
	var out []*ast.File
	for _, f := range pass.Files {
		name := pass.Fset.Position(f.Pos()).Filename
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		out = append(out, f)
	}
	return out
}

// ownFacts returns the driver-computed facts, or computes them locally
// (analysistest and direct use).
func ownFacts(pass *analysis.Pass, files []*ast.File) *analysis.PackageFacts {
	if pass.OwnFacts != nil {
		return pass.OwnFacts
	}
	return modfacts.Compute(pass.Fset, files, pass.TypesInfo, pass.Pkg, pass.Dirs, pass.ImportedFacts)
}

type checker struct {
	pass      *analysis.Pass
	g         *callgraph.Graph
	own       *analysis.PackageFacts
	contracts *modfacts.ContractVars
}

// surfacesOf returns the contracts a call's callee can surface, with a
// display name for diagnostics.
func (c *checker) surfacesOf(call *ast.CallExpr) (contracts []string, name string) {
	fn := analysis.Callee(c.pass.TypesInfo, call)
	if fn == nil {
		return nil, ""
	}
	fname := modfacts.FuncName(fn)
	if fn.Pkg() == c.pass.Pkg {
		if ff := c.own.Func(fname); ff != nil {
			return ff.Surfaces, fname
		}
		return nil, ""
	}
	if fn.Pkg() == nil {
		return nil, ""
	}
	path := analysis.NormalizePkgPath(fn.Pkg().Path())
	if ff := c.pass.ImportedFacts(path).Func(fname); ff != nil {
		return ff.Surfaces, fn.Pkg().Name() + "." + fname
	}
	return nil, ""
}

// handlesOf reports whether a called function is annotated as a handler
// for the contract (own annotation or imported fact).
func (c *checker) handlesOf(call *ast.CallExpr, contract string) bool {
	fn := analysis.Callee(c.pass.TypesInfo, call)
	if fn == nil {
		return false
	}
	fname := modfacts.FuncName(fn)
	var ff *analysis.FuncFact
	if fn.Pkg() == c.pass.Pkg {
		ff = c.own.Func(fname)
	} else if fn.Pkg() != nil {
		ff = c.pass.ImportedFacts(analysis.NormalizePkgPath(fn.Pkg().Path())).Func(fname)
	}
	if ff == nil {
		return false
	}
	for _, h := range ff.Handles {
		if h == contract {
			return true
		}
	}
	return false
}

// declFact returns the fact of the declaration enclosing a node (the node
// itself for declarations, the lexically enclosing decl for literals).
func (c *checker) declFact(n *callgraph.Node) *analysis.FuncFact {
	d := n
	if d.Encl != nil {
		d = d.Encl
	}
	return c.own.Func(d.Name)
}

func (c *checker) checkNode(n *callgraph.Node) {
	body := n.Body()
	if body == nil {
		return
	}
	var sites []*ast.CallExpr
	n.Walk(func(x ast.Node) bool {
		if call, ok := x.(*ast.CallExpr); ok {
			sites = append(sites, call)
		}
		return true
	})
	if len(sites) == 0 {
		return
	}
	var flow *flowInfo // built on first demand; most functions need none
	for _, call := range sites {
		surfaces, name := c.surfacesOf(call)
		for _, contract := range surfaces {
			if c.declSurfaces(n, contract) {
				continue // rule 1: responsibility passed to callers
			}
			if n.Lit != nil && c.litPassedToHandler(n, contract) {
				continue // rule 3: closure run by a verified handler
			}
			if flow == nil {
				flow = newFlowInfo(body)
			}
			if c.guardedAndHandled(flow, call, contract) {
				continue // rule 2: guard then handler reachable
			}
			c.pass.Reportf(call.Pos(),
				"call to %s can surface the %s contract error but no errors.Is guard reaching a refetch/refresh handler follows; handle it or annotate the caller //srclint:surfaces %s",
				name, contract, contract)
		}
	}
}

// declSurfaces reports whether the node's enclosing declaration surfaces
// the contract (annotation or inference).
func (c *checker) declSurfaces(n *callgraph.Node, contract string) bool {
	ff := c.declFact(n)
	if ff == nil {
		return false
	}
	for _, s := range ff.Surfaces {
		if s == contract {
			return true
		}
	}
	return false
}

// litPassedToHandler implements rule 3: the literal is a direct argument
// of a call whose callee handles the contract.
func (c *checker) litPassedToHandler(n *callgraph.Node, contract string) bool {
	encl := n.Encl
	if encl == nil || encl.Body() == nil {
		return false
	}
	found := false
	ast.Inspect(encl.Body(), func(x ast.Node) bool {
		if found {
			return false
		}
		call, ok := x.(*ast.CallExpr)
		if !ok {
			return true
		}
		for _, arg := range call.Args {
			if ast.Unparen(arg) == n.Lit && c.handlesOf(call, contract) {
				found = true
				return false
			}
		}
		return true
	})
	return found
}

// verifyHandles checks every //srclint:handles annotation against the
// body: the handler must contain the contract guard and a refetch/refresh
// call reachable from it. This is what makes rule 3 safe — and what the
// seeding-removal test deletes.
func (c *checker) verifyHandles(n *callgraph.Node) {
	if n.Decl == nil {
		return
	}
	args, ok := analysis.Directive(n.Decl.Doc, "handles")
	if !ok || n.Body() == nil {
		return
	}
	flow := newFlowInfo(n.Body())
	for _, contract := range strings.Fields(args) {
		if c.handlerVerified(flow, contract) {
			continue
		}
		c.pass.Reportf(n.Decl.Pos(),
			"%s is annotated //srclint:handles %s but its body has no errors.Is(err, <%s error>) guard reaching a refetch/refresh call — the handler annotation has rotted",
			n.Name, contract, contract)
	}
}

func (c *checker) handlerVerified(flow *flowInfo, contract string) bool {
	for gi, loc := range flow.nodes {
		if !c.isGuard(loc.node, contract) {
			continue
		}
		for hi, hloc := range flow.nodes {
			if c.isHandler(hloc.node, contract) && flow.reaches(gi, hi) {
				return true
			}
		}
	}
	return false
}

// guardedAndHandled implements rule 2 over the function CFG.
func (c *checker) guardedAndHandled(flow *flowInfo, call *ast.CallExpr, contract string) bool {
	ci := flow.indexOf(call)
	if ci < 0 {
		return false
	}
	for gi, loc := range flow.nodes {
		if !c.isGuard(loc.node, contract) || !flow.reaches(ci, gi) {
			continue
		}
		for hi, hloc := range flow.nodes {
			if c.isHandler(hloc.node, contract) && flow.reaches(gi, hi) {
				return true
			}
		}
	}
	return false
}

// isGuard reports whether a CFG node contains errors.Is(_, E) where E is
// the contract's error.
func (c *checker) isGuard(node ast.Node, contract string) bool {
	found := false
	ast.Inspect(node, func(x ast.Node) bool {
		if found {
			return false
		}
		call, ok := x.(*ast.CallExpr)
		if !ok || !modfacts.IsErrorsClassify(c.pass.TypesInfo, call) || len(call.Args) < 2 {
			return true
		}
		if id, ok := ast.Unparen(call.Args[1]).(*ast.Ident); ok && c.contractOfIdent(id) == contract {
			found = true
			return false
		}
		if sel, ok := ast.Unparen(call.Args[1]).(*ast.SelectorExpr); ok && c.contractOfIdent(sel.Sel) == contract {
			found = true
			return false
		}
		return true
	})
	return found
}

func (c *checker) contractOfIdent(id *ast.Ident) string {
	obj := c.pass.TypesInfo.Uses[id]
	if obj == nil {
		return ""
	}
	if ct := c.contracts.Contract(obj); ct != "" {
		return ct
	}
	if obj.Pkg() != nil && obj.Pkg() != c.pass.Pkg {
		return c.pass.ImportedFacts(analysis.NormalizePkgPath(obj.Pkg().Path())).Contract(obj.Name())
	}
	return ""
}

// isHandler reports whether a CFG node contains a handler call: a callee
// whose name starts with refresh/refetch, or whose facts handle the
// contract.
func (c *checker) isHandler(node ast.Node, contract string) bool {
	found := false
	ast.Inspect(node, func(x ast.Node) bool {
		if found {
			return false
		}
		call, ok := x.(*ast.CallExpr)
		if !ok {
			return true
		}
		if name := calleeBaseName(c.pass.TypesInfo, call); name != "" {
			l := strings.ToLower(name)
			if strings.HasPrefix(l, "refresh") || strings.HasPrefix(l, "refetch") {
				found = true
				return false
			}
		}
		if c.handlesOf(call, contract) {
			found = true
			return false
		}
		return true
	})
	return found
}

func calleeBaseName(info *types.Info, call *ast.CallExpr) string {
	if fn := analysis.Callee(info, call); fn != nil {
		return fn.Name()
	}
	// Function-value calls keep their syntactic name: a local `refetch`
	// closure variable still reads as a handler.
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		return fun.Name
	case *ast.SelectorExpr:
		return fun.Sel.Name
	}
	return ""
}

// ---- CFG position/reachability ------------------------------------------

// flowInfo flattens a function CFG into located nodes plus a block
// reachability relation, so "is a guard forward-reachable from this call"
// is a table lookup.
type flowInfo struct {
	g     *cfg.Graph
	nodes []flowLoc
	// reach[i][j]: block j is reachable from block i (reflexive).
	reach []map[int]bool
}

type flowLoc struct {
	node  ast.Node
	block int // cfg block index
	idx   int // position within the block
}

func newFlowInfo(body *ast.BlockStmt) *flowInfo {
	f := &flowInfo{g: cfg.New(body)}
	for _, blk := range f.g.Blocks {
		for i, n := range blk.Nodes {
			f.nodes = append(f.nodes, flowLoc{node: n, block: blk.Index, idx: i})
		}
	}
	f.reach = make([]map[int]bool, len(f.g.Blocks))
	for _, blk := range f.g.Blocks {
		seen := map[int]bool{blk.Index: true}
		work := []*cfg.Block{blk}
		for len(work) > 0 {
			b := work[0]
			work = work[1:]
			for _, s := range b.Succs {
				if !seen[s.Index] {
					seen[s.Index] = true
					work = append(work, s)
				}
			}
		}
		f.reach[blk.Index] = seen
	}
	return f
}

// indexOf locates the flow node containing the given call, -1 if the call
// is unreachable dead code.
func (f *flowInfo) indexOf(call *ast.CallExpr) int {
	for i, loc := range f.nodes {
		if containsNode(loc.node, call) {
			return i
		}
	}
	return -1
}

// reaches reports whether flow node j is forward-reachable from flow node
// i: later in the same block, or in a block reachable from i's.
func (f *flowInfo) reaches(i, j int) bool {
	a, b := f.nodes[i], f.nodes[j]
	if a.block == b.block {
		return b.idx >= a.idx || blockInCycle(f, a.block)
	}
	return f.reach[a.block][b.block]
}

// blockInCycle reports whether a block can re-reach itself (it sits on a
// loop), in which case earlier nodes in the block are reachable again.
func blockInCycle(f *flowInfo, block int) bool {
	for _, s := range f.g.Blocks[block].Succs {
		if f.reach[s.Index][block] {
			return true
		}
	}
	return false
}

func containsNode(outer ast.Node, inner ast.Node) bool {
	if outer == nil {
		return false
	}
	found := false
	ast.Inspect(outer, func(x ast.Node) bool {
		if found {
			return false
		}
		if x == inner {
			found = true
			return false
		}
		return true
	})
	return found
}
