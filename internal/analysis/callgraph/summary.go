package callgraph

import (
	"go/ast"
	"go/types"
	"sort"
)

// A Summary is a node's transitive effect summary, computed over the SCC
// condensation (callees first, fixpoint within a component):
//
//   - SendsOn / ClosesOn: channel objects (struct fields, package vars, or
//     variables captured from an enclosing function) the function may send
//     on / close, directly or via callees.
//   - SendsOnParam / ClosesOnParam: same, for channel-typed parameters by
//     unified index (a method's receiver is parameter 0, then the declared
//     parameters).
//
// Effects behind `go` launches inside a callee are included: a caller that
// invokes a function which *starts a goroutine that closes ch* may close
// ch, as far as channel discipline is concerned.
type Summary struct {
	SendsOn       []types.Object
	ClosesOn      []types.Object
	SendsOnParam  []bool
	ClosesOnParam []bool
}

// Sends reports whether the summary includes a send on obj.
func (s *Summary) Sends(obj types.Object) bool { return containsObj(s.SendsOn, obj) }

// Closes reports whether the summary includes a close of obj.
func (s *Summary) Closes(obj types.Object) bool { return containsObj(s.ClosesOn, obj) }

func containsObj(objs []types.Object, obj types.Object) bool {
	for _, o := range objs {
		if o == obj {
			return true
		}
	}
	return false
}

// Params returns a node's parameter objects in unified order (receiver
// first for methods).
func (n *Node) Params(info *types.Info) []types.Object {
	var out []types.Object
	if n.Decl != nil {
		if n.Decl.Recv != nil {
			for _, f := range n.Decl.Recv.List {
				for _, name := range f.Names {
					out = append(out, info.Defs[name])
				}
			}
		}
		for _, f := range n.Decl.Type.Params.List {
			for _, name := range f.Names {
				out = append(out, info.Defs[name])
			}
		}
		return out
	}
	for _, f := range n.Lit.Type.Params.List {
		for _, name := range f.Names {
			out = append(out, info.Defs[name])
		}
	}
	return out
}

// CallArgs returns a call site's argument expressions in unified order: for
// a method call through a selector, the receiver expression is prepended.
func CallArgs(info *types.Info, call *ast.CallExpr) []ast.Expr {
	if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
		if s := info.Selections[sel]; s != nil && s.Kind() == types.MethodVal {
			return append([]ast.Expr{sel.X}, call.Args...)
		}
	}
	return call.Args
}

// ComputeSummaries fills every node's Summary, iterating SCCs callee-first
// and re-running each component to a fixpoint so recursion converges.
func (g *Graph) ComputeSummaries() {
	paramIdx := make([]map[types.Object]int, len(g.Nodes))
	for _, n := range g.Nodes {
		params := n.Params(g.info)
		n.Summary = Summary{
			SendsOnParam:  make([]bool, len(params)),
			ClosesOnParam: make([]bool, len(params)),
		}
		idx := make(map[types.Object]int, len(params))
		for i, p := range params {
			if p != nil {
				idx[p] = i
			}
		}
		paramIdx[n.Index] = idx
		g.directEffects(n, idx)
	}
	for _, scc := range g.SCCs() {
		for changed := true; changed; {
			changed = false
			for _, n := range scc {
				if g.propagateCalls(n, paramIdx[n.Index]) {
					changed = true
				}
			}
		}
	}
	for _, n := range g.Nodes {
		sortObjs(n.Summary.SendsOn)
		sortObjs(n.Summary.ClosesOn)
	}
}

func sortObjs(objs []types.Object) {
	sort.Slice(objs, func(i, j int) bool { return objs[i].Pos() < objs[j].Pos() })
}

// directEffects records a node's own sends and closes.
func (g *Graph) directEffects(n *Node, paramIdx map[types.Object]int) {
	s := &n.Summary
	recordChan := func(e ast.Expr, onParam []bool, objs *[]types.Object) {
		obj := g.valueObj(e)
		if obj == nil {
			return
		}
		if i, ok := paramIdx[obj]; ok {
			onParam[i] = true
			return
		}
		if isLocalOf(obj, n) {
			return // node-local channel: effects cannot outlive the call
		}
		if !containsObj(*objs, obj) {
			*objs = append(*objs, obj)
		}
	}
	n.Walk(func(x ast.Node) bool {
		switch st := x.(type) {
		case *ast.SendStmt:
			recordChan(st.Chan, s.SendsOnParam, &s.SendsOn)
		case *ast.CallExpr:
			if name, ok := builtinName(g.info, st); ok && name == "close" && len(st.Args) == 1 {
				recordChan(st.Args[0], s.ClosesOnParam, &s.ClosesOn)
			}
		}
		return true
	})
}

// isLocalOf reports whether obj is a variable declared inside the node's
// own body (not a field, package var, parameter, or captured variable).
func isLocalOf(obj types.Object, n *Node) bool {
	v, ok := obj.(*types.Var)
	if !ok || v.IsField() {
		return false
	}
	body := n.Body()
	if body == nil {
		return false
	}
	return obj.Pos() >= body.Pos() && obj.Pos() < body.End()
}

// builtinName reports the name of a builtin call, if the call is one.
func builtinName(info *types.Info, call *ast.CallExpr) (string, bool) {
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok {
		return "", false
	}
	if b, ok := info.Uses[id].(*types.Builtin); ok {
		return b.Name(), true
	}
	return "", false
}

// propagateCalls merges callee summaries into n through its call sites,
// returning whether anything new was learned.
func (g *Graph) propagateCalls(n *Node, paramIdx map[types.Object]int) bool {
	s := &n.Summary
	changed := false
	for _, e := range n.Out {
		callee := e.Callee
		cs := &callee.Summary
		args := CallArgs(g.info, e.Site)

		// Field/package/captured-channel effects propagate verbatim;
		// channel effects on callee parameters map through the argument
		// expressions at this site.
		changed = mergeChanEffects(g, n, paramIdx, cs.SendsOn, cs.SendsOnParam, args, &s.SendsOn, s.SendsOnParam) || changed
		changed = mergeChanEffects(g, n, paramIdx, cs.ClosesOn, cs.ClosesOnParam, args, &s.ClosesOn, s.ClosesOnParam) || changed
	}
	return changed
}

// mergeChanEffects folds one callee channel-effect set into the caller's.
func mergeChanEffects(g *Graph, n *Node, paramIdx map[types.Object]int,
	calleeObjs []types.Object, calleeParams []bool, args []ast.Expr,
	callerObjs *[]types.Object, callerParams []bool) bool {

	changed := false
	add := func(obj types.Object) {
		if obj == nil || isLocalOf(obj, n) {
			return
		}
		if i, ok := paramIdx[obj]; ok {
			if !callerParams[i] {
				callerParams[i] = true
				changed = true
			}
			return
		}
		if !containsObj(*callerObjs, obj) {
			*callerObjs = append(*callerObjs, obj)
			changed = true
		}
	}
	for _, obj := range calleeObjs {
		add(obj)
	}
	for i, hit := range calleeParams {
		if hit && i < len(args) {
			add(g.valueObj(args[i]))
		}
	}
	return changed
}
