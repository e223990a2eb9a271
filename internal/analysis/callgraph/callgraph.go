// Package callgraph builds a static, package-local call graph for the
// interprocedural srclint analyzers (chandisc, hotpath, staleepoch).
//
// Nodes are the package's function declarations plus every function
// literal; edges record the call site and how control transfers: a plain
// call, a `go` launch, or a `defer`. Calls through function-typed
// variables, struct fields, and parameters are resolved by a small flow
// analysis over the common assignment shapes (x = f, field: f in a
// composite literal, f passed as an argument to a known callee), so
// `w := s.worker; go w()` produces a Go edge to worker.
//
// Everything is deterministic: nodes are ordered by source position (not
// by file-slice or map order), edges by call-site position, and SCCs are
// emitted by Tarjan's algorithm seeded in node order, so the iteration
// order — and therefore every diagnostic order derived from it — is a
// pure function of the source text.
package callgraph

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"

	"srccache/internal/analysis"
)

// Kind classifies how an edge transfers control.
type Kind int

const (
	// Call is a synchronous call: the callee runs on the caller's
	// goroutine before the next statement.
	Call Kind = iota
	// Go is a goroutine launch site: the callee runs concurrently.
	Go
	// Defer is a deferred call: the callee runs on the caller's
	// goroutine, at function exit.
	Defer
)

func (k Kind) String() string {
	switch k {
	case Go:
		return "go"
	case Defer:
		return "defer"
	}
	return "call"
}

// A Node is one function: a declaration or a literal.
type Node struct {
	// Index is the node's position in Graph.Nodes: declaration order by
	// source position, stable across file-slice permutations.
	Index int

	// Name is a human-readable label: "run", "Serial.Submit", or
	// "Close$1" for the first literal lexically inside Close.
	Name string

	Decl *ast.FuncDecl // nil for literals
	Lit  *ast.FuncLit  // nil for declarations

	// Obj is the declared *types.Func object; nil for literals.
	Obj *types.Func

	// Encl is the declaration node whose body lexically encloses a
	// literal (transitively: a literal inside a literal inside Close
	// reports Close). Nil for declarations.
	Encl *Node

	Out []Edge // edges from this node, in call-site position order
	In  []Edge // reverse edges, same ordering rule

	// Summary holds the node's computed effect summary; populated by
	// Graph.ComputeSummaries.
	Summary Summary
}

// Body returns the node's function body (nil for bodiless declarations).
func (n *Node) Body() *ast.BlockStmt {
	if n.Lit != nil {
		return n.Lit.Body
	}
	return n.Decl.Body
}

// Pos returns the node's declaration position.
func (n *Node) Pos() token.Pos {
	if n.Lit != nil {
		return n.Lit.Pos()
	}
	return n.Decl.Pos()
}

// Walk visits the node's own syntax in source order, not descending into
// nested function literals (their statements belong to their own nodes).
// fn's return value gates descent exactly as in ast.Inspect.
func (n *Node) Walk(fn func(ast.Node) bool) {
	body := n.Body()
	if body == nil {
		return
	}
	ast.Inspect(body, func(x ast.Node) bool {
		if _, isLit := x.(*ast.FuncLit); isLit {
			return false
		}
		return fn(x)
	})
}

// An Edge is one call site.
type Edge struct {
	Kind   Kind
	Caller *Node
	Callee *Node
	// Site is the call expression at the site. For a `go f()` launch it
	// is the launched call; Site.Pos() is the diagnostic anchor.
	Site *ast.CallExpr
}

// A Graph is the package's call graph.
type Graph struct {
	Nodes []*Node

	info  *types.Info
	byObj map[*types.Func]*Node
	byLit map[*ast.FuncLit]*Node
	flows map[types.Object][]*Node
}

// Callees maps a call expression to the package-local nodes it may invoke
// (deterministic order). See resolve for the resolution rules.
func (g *Graph) Callees(call *ast.CallExpr) []*Node {
	return g.resolve(call, g.flows)
}

// NodeOf returns the node for a declared function object, or nil.
func (g *Graph) NodeOf(obj *types.Func) *Node { return g.byObj[obj] }

// LitNode returns the node for a function literal, or nil.
func (g *Graph) LitNode(lit *ast.FuncLit) *Node { return g.byLit[lit] }

// Build constructs the call graph of one package.
func Build(fset *token.FileSet, files []*ast.File, info *types.Info) *Graph {
	g := &Graph{
		info:  info,
		byObj: make(map[*types.Func]*Node),
		byLit: make(map[*ast.FuncLit]*Node),
	}
	g.collectNodes(fset, files)
	g.flows = g.solveFlows(files)
	g.addEdges(g.flows)
	return g
}

// collectNodes gathers declarations and literals and numbers them in
// source-position order regardless of the order files were supplied in.
func (g *Graph) collectNodes(fset *token.FileSet, files []*ast.File) {
	type protoNode struct {
		node *Node
		file string
		off  int
	}
	var protos []protoNode
	add := func(n *Node, pos token.Pos) {
		p := fset.Position(pos)
		protos = append(protos, protoNode{n, p.Filename, p.Offset})
	}
	for _, f := range files {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			obj, _ := g.info.Defs[fd.Name].(*types.Func)
			n := &Node{Name: declName(fd), Decl: fd, Obj: obj}
			add(n, fd.Pos())
			if obj != nil {
				g.byObj[obj] = n
			}
			// Literals nested in this declaration, numbered lexically.
			seq := 0
			ast.Inspect(fd.Body, func(x ast.Node) bool {
				if lit, ok := x.(*ast.FuncLit); ok {
					seq++
					ln := &Node{Name: n.Name + litSuffix(seq), Lit: lit, Encl: n}
					add(ln, lit.Pos())
					g.byLit[lit] = ln
				}
				return true
			})
		}
	}
	sort.SliceStable(protos, func(i, j int) bool {
		if protos[i].file != protos[j].file {
			return protos[i].file < protos[j].file
		}
		return protos[i].off < protos[j].off
	})
	for i, p := range protos {
		p.node.Index = i
		g.Nodes = append(g.Nodes, p.node)
	}
}

func declName(fd *ast.FuncDecl) string {
	if fd.Recv == nil || len(fd.Recv.List) == 0 {
		return fd.Name.Name
	}
	return recvTypeName(fd.Recv.List[0].Type) + "." + fd.Name.Name
}

// recvTypeName extracts the receiver's base type name ("*shard" -> "shard").
func recvTypeName(e ast.Expr) string {
	switch t := e.(type) {
	case *ast.StarExpr:
		return recvTypeName(t.X)
	case *ast.IndexExpr: // generic receiver shard[T]
		return recvTypeName(t.X)
	case *ast.IndexListExpr:
		return recvTypeName(t.X)
	case *ast.Ident:
		return t.Name
	}
	return "?"
}

func litSuffix(seq int) string {
	// "$1", "$2", ... — the gc compiler's anonymous-function spelling.
	s := "$"
	if seq == 0 {
		return s + "0"
	}
	var digits []byte
	for seq > 0 {
		digits = append([]byte{byte('0' + seq%10)}, digits...)
		seq /= 10
	}
	return s + string(digits)
}

// solveFlows computes, for every function-typed variable/field/parameter
// object, the set of package-local functions that may flow into it. The
// analysis is a may-analysis over direct bindings (assignment, composite
// literal field, argument to a statically known callee) closed under
// object-to-object copies.
func (g *Graph) solveFlows(files []*ast.File) map[types.Object][]*Node {
	direct := make(map[types.Object]map[*Node]bool) // obj <- function values
	copies := make(map[types.Object]map[types.Object]bool)

	addFunc := func(dst types.Object, n *Node) {
		if dst == nil || n == nil {
			return
		}
		if direct[dst] == nil {
			direct[dst] = make(map[*Node]bool)
		}
		direct[dst][n] = true
	}
	addCopy := func(dst, src types.Object) {
		if dst == nil || src == nil {
			return
		}
		if copies[dst] == nil {
			copies[dst] = make(map[types.Object]bool)
		}
		copies[dst][src] = true
	}
	// bind records "dst may hold the value of rhs".
	bind := func(dst types.Object, rhs ast.Expr) {
		if dst == nil {
			return
		}
		rhs = ast.Unparen(rhs)
		if n := g.funcValue(rhs); n != nil {
			addFunc(dst, n)
			return
		}
		if src := g.valueObj(rhs); src != nil {
			addCopy(dst, src)
		}
	}

	for _, f := range files {
		ast.Inspect(f, func(x ast.Node) bool {
			switch s := x.(type) {
			case *ast.AssignStmt:
				if len(s.Lhs) == len(s.Rhs) {
					for i, lhs := range s.Lhs {
						bind(g.valueObj(lhs), s.Rhs[i])
					}
				}
			case *ast.ValueSpec:
				for i, name := range s.Names {
					if i < len(s.Values) {
						bind(g.info.Defs[name], s.Values[i])
					}
				}
			case *ast.CompositeLit:
				for _, el := range s.Elts {
					if kv, ok := el.(*ast.KeyValueExpr); ok {
						if key, ok := kv.Key.(*ast.Ident); ok {
							bind(g.fieldKeyObj(key), kv.Value)
						}
					}
				}
			case *ast.CallExpr:
				// Arguments to a statically known package-local callee
				// flow into its parameter objects.
				callee := g.staticCallee(s)
				if callee == nil {
					return true
				}
				params := calleeParams(callee)
				for i, arg := range s.Args {
					if i < len(params) {
						bind(params[i], arg)
					}
				}
			}
			return true
		})
	}

	// Close copies over direct bindings to a fixpoint. Deterministic:
	// results are sorted by node index on extraction.
	changed := true
	for changed {
		changed = false
		for dst, srcs := range copies {
			for src := range srcs {
				for n := range direct[src] {
					if direct[dst] == nil {
						direct[dst] = make(map[*Node]bool)
					}
					if !direct[dst][n] {
						direct[dst][n] = true
						changed = true
					}
				}
			}
		}
	}

	out := make(map[types.Object][]*Node, len(direct))
	for obj, set := range direct {
		nodes := make([]*Node, 0, len(set))
		for n := range set {
			nodes = append(nodes, n)
		}
		sort.Slice(nodes, func(i, j int) bool { return nodes[i].Index < nodes[j].Index })
		out[obj] = nodes
	}
	return out
}

// funcValue resolves an expression that denotes a package-local function
// value without calling it: a function name, a method value, or a literal.
func (g *Graph) funcValue(e ast.Expr) *Node {
	switch e := ast.Unparen(e).(type) {
	case *ast.FuncLit:
		return g.byLit[e]
	case *ast.Ident:
		if fn, ok := g.info.Uses[e].(*types.Func); ok {
			return g.byObj[fn]
		}
	case *ast.SelectorExpr:
		if sel := g.info.Selections[e]; sel != nil {
			if fn, ok := sel.Obj().(*types.Func); ok {
				return g.byObj[fn]
			}
			return nil
		}
		if fn, ok := g.info.Uses[e.Sel].(*types.Func); ok {
			return g.byObj[fn]
		}
	}
	return nil
}

// ValueObj resolves an lvalue/rvalue expression to the variable or field
// object it denotes, or nil — the shared resolution rule analyzers use to
// name channels and aliases.
func (g *Graph) ValueObj(e ast.Expr) types.Object { return g.valueObj(e) }

// valueObj resolves an lvalue/rvalue expression to the variable or field
// object it denotes, or nil.
func (g *Graph) valueObj(e ast.Expr) types.Object {
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		if obj := g.info.Defs[e]; obj != nil {
			return obj
		}
		if v, ok := g.info.Uses[e].(*types.Var); ok {
			return v
		}
	case *ast.SelectorExpr:
		if sel := g.info.Selections[e]; sel != nil {
			if v, ok := sel.Obj().(*types.Var); ok {
				return v
			}
			return nil
		}
		if v, ok := g.info.Uses[e.Sel].(*types.Var); ok {
			return v
		}
	}
	return nil
}

// fieldKeyObj resolves a composite-literal field key to its field object.
func (g *Graph) fieldKeyObj(key *ast.Ident) types.Object {
	if v, ok := g.info.Uses[key].(*types.Var); ok && v.IsField() {
		return v
	}
	return nil
}

// staticCallee resolves a call to its package-local declared callee node.
func (g *Graph) staticCallee(call *ast.CallExpr) *Node {
	if fn := analysis.Callee(g.info, call); fn != nil {
		return g.byObj[fn]
	}
	if lit, ok := ast.Unparen(call.Fun).(*ast.FuncLit); ok {
		return g.byLit[lit]
	}
	return nil
}

// calleeParams returns the callee's parameter objects in order.
func calleeParams(n *Node) []types.Object {
	var sig *types.Signature
	if n.Obj != nil {
		sig, _ = n.Obj.Type().(*types.Signature)
	}
	if sig == nil {
		return nil
	}
	params := make([]types.Object, 0, sig.Params().Len())
	for i := 0; i < sig.Params().Len(); i++ {
		params = append(params, sig.Params().At(i))
	}
	return params
}

// addEdges walks every node's own statements and records its call sites.
func (g *Graph) addEdges(flows map[types.Object][]*Node) {
	for _, n := range g.Nodes {
		caller := n
		emit := func(kind Kind, call *ast.CallExpr) {
			for _, callee := range g.resolve(call, flows) {
				caller.Out = append(caller.Out, Edge{Kind: kind, Caller: caller, Callee: callee, Site: call})
			}
		}
		caller.Walk(func(x ast.Node) bool {
			switch s := x.(type) {
			case *ast.GoStmt:
				emit(Go, s.Call)
				// Arguments of the launched call are evaluated on the
				// caller's goroutine; the generic CallExpr case below
				// handles calls nested inside them. Skip only the
				// launched call itself.
				for _, arg := range s.Call.Args {
					walkCalls(arg, func(c *ast.CallExpr) { emit(Call, c) })
				}
				walkCalls(s.Call.Fun, func(c *ast.CallExpr) { emit(Call, c) })
				return false
			case *ast.DeferStmt:
				emit(Defer, s.Call)
				for _, arg := range s.Call.Args {
					walkCalls(arg, func(c *ast.CallExpr) { emit(Call, c) })
				}
				walkCalls(s.Call.Fun, func(c *ast.CallExpr) { emit(Call, c) })
				return false
			case *ast.CallExpr:
				emit(Call, s)
			}
			return true
		})
		// Node.Walk visits in source order; resolve() returns callees in
		// index order, so Out is already deterministic. Fill In below.
	}
	for _, n := range g.Nodes {
		for i := range n.Out {
			e := n.Out[i]
			e.Callee.In = append(e.Callee.In, e)
		}
	}
	for _, n := range g.Nodes {
		sort.SliceStable(n.In, func(i, j int) bool {
			if n.In[i].Caller.Index != n.In[j].Caller.Index {
				return n.In[i].Caller.Index < n.In[j].Caller.Index
			}
			return n.In[i].Site.Pos() < n.In[j].Site.Pos()
		})
	}
}

// resolve maps a call expression to the package-local nodes it may invoke.
// A function literal passed to an unknown (external or dynamic) callee is
// treated as potentially invoked at the call site, so `once.Do(func(){...})`
// attributes the literal's effects to the caller.
func (g *Graph) resolve(call *ast.CallExpr, flows map[types.Object][]*Node) []*Node {
	if n := g.staticCallee(call); n != nil {
		return []*Node{n}
	}
	// Call through a function-typed variable, field or parameter.
	if obj := g.valueObj(call.Fun); obj != nil {
		if nodes := flows[obj]; len(nodes) > 0 {
			return nodes
		}
	}
	if analysis.Callee(g.info, call) != nil {
		return nil // known external function: no local node
	}
	// Unknown callee: conservatively assume it may invoke any local
	// function value appearing in its arguments (sync.Once.Do, sort.Slice).
	var out []*Node
	for _, arg := range call.Args {
		if n := g.funcValue(arg); n != nil {
			out = append(out, n)
		} else if obj := g.valueObj(arg); obj != nil {
			out = append(out, flows[obj]...)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Index < out[j].Index })
	return dedupeNodes(out)
}

func dedupeNodes(nodes []*Node) []*Node {
	out := nodes[:0]
	var prev *Node
	for _, n := range nodes {
		if n != prev {
			out = append(out, n)
		}
		prev = n
	}
	return out
}

// walkCalls visits every CallExpr in e, not descending into literals.
func walkCalls(e ast.Expr, fn func(*ast.CallExpr)) {
	if e == nil {
		return
	}
	ast.Inspect(e, func(x ast.Node) bool {
		if _, ok := x.(*ast.FuncLit); ok {
			return false
		}
		if c, ok := x.(*ast.CallExpr); ok {
			fn(c)
		}
		return true
	})
}

// SCCs returns the graph's strongly connected components in reverse
// topological order (callees before callers), each component's members in
// node-index order. Tarjan's algorithm seeded in node order makes the
// result a pure function of the graph.
func (g *Graph) SCCs() [][]*Node {
	n := len(g.Nodes)
	index := make([]int, n)
	low := make([]int, n)
	onStack := make([]bool, n)
	for i := range index {
		index[i] = -1
	}
	var stack []*Node
	var sccs [][]*Node
	next := 0

	var strongconnect func(v *Node)
	strongconnect = func(v *Node) {
		index[v.Index] = next
		low[v.Index] = next
		next++
		stack = append(stack, v)
		onStack[v.Index] = true
		for _, e := range v.Out {
			w := e.Callee
			if index[w.Index] < 0 {
				strongconnect(w)
				low[v.Index] = min(low[v.Index], low[w.Index])
			} else if onStack[w.Index] {
				low[v.Index] = min(low[v.Index], index[w.Index])
			}
		}
		if low[v.Index] == index[v.Index] {
			var scc []*Node
			for {
				w := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				onStack[w.Index] = false
				scc = append(scc, w)
				if w == v {
					break
				}
			}
			sort.Slice(scc, func(i, j int) bool { return scc[i].Index < scc[j].Index })
			sccs = append(sccs, scc)
		}
	}
	for _, v := range g.Nodes {
		if index[v.Index] < 0 {
			strongconnect(v)
		}
	}
	return sccs
}

// EnclosingDecl returns the named declaration a node belongs to: the node
// itself for declarations, the lexically enclosing declaration for
// literals.
func (n *Node) EnclosingDecl() *Node {
	if n.Encl != nil {
		return n.Encl
	}
	return n
}
