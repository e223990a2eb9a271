// Package modfacts computes analysis.PackageFacts: the serialized
// per-package summaries that make srclint's contracts modular. The driver
// runs Compute over every in-module dependency (from source in standalone
// mode, cached through the vet .vetx files in vet-tool mode) and feeds the
// results to analyzers via Pass.DepFacts, so a contract declared in
// internal/netblock binds a caller in internal/cluster/fleet without either
// package's author wiring anything.
//
// Facts are a pure function of the package source: every list is sorted,
// positions inside descriptions are basename:line, and no token.Pos or
// absolute path leaks into the output, so Encode is byte-identical across
// file parse order and package load order (pinned by TestFactsDeterminism).
package modfacts

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"path/filepath"
	"strings"

	"srccache/internal/analysis"
	"srccache/internal/analysis/callgraph"
)

// Compute builds the facts of one type-checked package. dirs carries the
// package's //srclint:allow directives (suppressed hot-path violations do
// not poison a function's exported HotUnsafe fact); dep resolves dependency
// facts for cross-package propagation and may be nil.
func Compute(fset *token.FileSet, files []*ast.File, info *types.Info, pkg *types.Package, dirs *analysis.Directives, dep func(string) *analysis.PackageFacts) *analysis.PackageFacts {
	if dirs == nil {
		dirs = analysis.ParseDirectives(fset, files)
	}
	if dep == nil {
		dep = func(string) *analysis.PackageFacts { return nil }
	}
	g := callgraph.Build(fset, files, info)
	g.ComputeSummaries()

	out := &analysis.PackageFacts{
		Path:    analysis.NormalizePkgPath(pkg.Path()),
		Version: analysis.FactsVersion,
	}

	contracts := ContractErrorVars(files, info)
	for _, v := range contracts.vars {
		out.ContractErrors = append(out.ContractErrors, analysis.ContractError{
			Name: v.obj.Name(), Contract: v.contract,
		})
	}

	facts := make([]analysis.FuncFact, len(g.Nodes))
	for _, n := range g.Nodes {
		facts[n.Index] = directFacts(fset, info, pkg, n, contracts, dep, dirs)
	}
	propagateDials(g, facts)
	propagateHotUnsafe(fset, info, pkg, g, facts, dirs, dep)

	out.Funcs = append(out.Funcs, facts...)
	out.Normalize()
	return out
}

// directFacts fills everything about one function that does not require
// the package callgraph fixpoint: annotations, surfaces inference, budget
// consultation, cross-package call edges, and the channel summaries from
// the callgraph package.
func directFacts(fset *token.FileSet, info *types.Info, pkg *types.Package, n *callgraph.Node, contracts *ContractVars, dep func(string) *analysis.PackageFacts, dirs *analysis.Directives) analysis.FuncFact {
	ff := analysis.FuncFact{Name: n.Name, Exported: nodeExported(n)}

	if n.Decl != nil {
		if args, ok := analysis.Directive(n.Decl.Doc, "surfaces"); ok {
			ff.Surfaces = append(ff.Surfaces, strings.Fields(args)...)
		}
		if args, ok := analysis.Directive(n.Decl.Doc, "handles"); ok {
			ff.Handles = append(ff.Handles, strings.Fields(args)...)
		}
		if _, ok := analysis.Directive(n.Decl.Doc, "hotpath"); ok {
			ff.Hotpath = true
		}
		if _, ok := analysis.Directive(n.Decl.Doc, "coldpath"); ok {
			ff.Coldpath = true
		}
	}

	// Surfaces inference: constructing or returning a contract error
	// (outside an errors.Is/As classification) means callers can see it.
	surfaced := map[string]bool{}
	for _, c := range ff.Surfaces {
		surfaced[c] = true
	}
	for _, c := range SurfacedContracts(info, pkg, n, contracts, dep) {
		if !surfaced[c] {
			surfaced[c] = true
			ff.Surfaces = append(ff.Surfaces, c)
		}
	}

	base := lastNamePart(n.Name)
	ff.Dials = dialishName(base)
	ff.ConsultsBudget = budgetishName(base)
	seenCalls := map[string]bool{}
	n.Walk(func(x ast.Node) bool {
		call, ok := x.(*ast.CallExpr)
		if !ok {
			return true
		}
		fn := analysis.Callee(info, call)
		if fn == nil {
			return true
		}
		if dialishName(fn.Name()) {
			ff.Dials = true
		}
		if budgetishName(fn.Name()) {
			ff.ConsultsBudget = true
		}
		if fn.Pkg() != nil && fn.Pkg() != pkg {
			path := analysis.NormalizePkgPath(fn.Pkg().Path())
			if dep(path) != nil {
				edge := path + "." + FuncName(fn)
				if !seenCalls[edge] {
					seenCalls[edge] = true
					ff.Calls = append(ff.Calls, edge)
				}
			}
		}
		return true
	})

	for i, m := range n.Summary.SendsOnParam {
		if m {
			ff.SendsOnParams = append(ff.SendsOnParams, i)
		}
	}
	for i, m := range n.Summary.ClosesOnParam {
		if m {
			ff.ClosesOnParams = append(ff.ClosesOnParams, i)
		}
	}
	return ff
}

// nodeExported reports whether a function is reachable from another
// package: exported package function, or exported method on an exported
// type. Literals never are.
func nodeExported(n *callgraph.Node) bool {
	if n.Decl == nil || !n.Decl.Name.IsExported() {
		return false
	}
	if n.Decl.Recv == nil || len(n.Decl.Recv.List) == 0 {
		return true
	}
	recv, _, _ := strings.Cut(n.Name, ".")
	return token.IsExported(recv)
}

// lastNamePart strips the receiver ("Client.DialOptions" -> "DialOptions")
// and any literal suffix ("run$1" -> "run").
func lastNamePart(name string) string {
	if i := strings.LastIndexByte(name, '.'); i >= 0 {
		name = name[i+1:]
	}
	if i := strings.IndexByte(name, '$'); i >= 0 {
		name = name[:i]
	}
	return name
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

// FuncName renders a declared function object in the callgraph package's
// node-name convention ("Func", "Recv.Method"), the key facts are stored
// under.
func FuncName(fn *types.Func) string {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return fn.Name()
	}
	t := sig.Recv().Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if named, ok := t.(*types.Named); ok {
		return named.Obj().Name() + "." + fn.Name()
	}
	if iface, ok := t.(*types.Interface); ok {
		_ = iface // interface method with anonymous receiver type
	}
	return fn.Name()
}

// ---- contract errors -----------------------------------------------------

// ContractVars maps a package's contract-error variables (package-level
// error vars annotated //srclint:contracterr <contract>) to their contract
// names.
type ContractVars struct {
	byObj map[types.Object]string
	vars  []contractVar
}

type contractVar struct {
	obj      types.Object
	contract string
}

// Contract returns the contract obj is bound to, or "".
func (c *ContractVars) Contract(obj types.Object) string {
	if c == nil {
		return ""
	}
	return c.byObj[obj]
}

// ContractErrorVars scans package-level var declarations for
// //srclint:contracterr annotations (on the var spec's doc or trailing
// comment).
func ContractErrorVars(files []*ast.File, info *types.Info) *ContractVars {
	c := &ContractVars{byObj: make(map[types.Object]string)}
	for _, f := range files {
		for _, d := range f.Decls {
			gd, ok := d.(*ast.GenDecl)
			if !ok || gd.Tok != token.VAR {
				continue
			}
			for _, spec := range gd.Specs {
				vs, ok := spec.(*ast.ValueSpec)
				if !ok {
					continue
				}
				contract, ok := specDirective(gd, vs, "contracterr")
				if !ok || contract == "" {
					continue
				}
				for _, name := range vs.Names {
					obj := info.Defs[name]
					if obj == nil {
						continue
					}
					c.byObj[obj] = contract
					c.vars = append(c.vars, contractVar{obj: obj, contract: contract})
				}
			}
		}
	}
	return c
}

// specDirective finds a //srclint:<name> marker on a var spec: its own doc
// or line comment, or the enclosing single-spec declaration's doc.
func specDirective(gd *ast.GenDecl, vs *ast.ValueSpec, name string) (string, bool) {
	if args, ok := analysis.Directive(vs.Doc, name); ok {
		return args, true
	}
	if args, ok := analysis.Directive(vs.Comment, name); ok {
		return args, true
	}
	if len(gd.Specs) == 1 {
		return analysis.Directive(gd.Doc, name)
	}
	return "", false
}

// contractOf resolves an identifier to the contract it names, checking the
// package's own contract vars first, then imported packages' facts.
func contractOf(info *types.Info, pkg *types.Package, id *ast.Ident, contracts *ContractVars, dep func(string) *analysis.PackageFacts) string {
	obj := info.Uses[id]
	if obj == nil {
		return ""
	}
	if c := contracts.Contract(obj); c != "" {
		return c
	}
	if obj.Pkg() != nil && obj.Pkg() != pkg {
		return dep(analysis.NormalizePkgPath(obj.Pkg().Path())).Contract(obj.Name())
	}
	return ""
}

// SurfacedContracts reports the contracts whose error a function's body
// references outside an errors.Is / errors.As classification — the
// inference that a function constructing fmt.Errorf("...%w", ErrStaleEpoch)
// surfaces the staleepoch contract even without an annotation.
func SurfacedContracts(info *types.Info, pkg *types.Package, n *callgraph.Node, contracts *ContractVars, dep func(string) *analysis.PackageFacts) []string {
	var out []string
	seen := map[string]bool{}
	n.Walk(func(x ast.Node) bool {
		if call, ok := x.(*ast.CallExpr); ok && IsErrorsClassify(info, call) {
			return false // errors.Is(err, ErrX) is a guard, not a construction
		}
		id, ok := x.(*ast.Ident)
		if !ok {
			return true
		}
		if c := contractOf(info, pkg, id, contracts, dep); c != "" && !seen[c] {
			seen[c] = true
			out = append(out, c)
		}
		return true
	})
	return out
}

// IsErrorsClassify reports whether call is errors.Is or errors.As.
func IsErrorsClassify(info *types.Info, call *ast.CallExpr) bool {
	fn := analysis.Callee(info, call)
	return fn != nil && fn.Pkg() != nil && fn.Pkg().Path() == "errors" &&
		(fn.Name() == "Is" || fn.Name() == "As")
}

// ---- hot-path scanning ---------------------------------------------------

// A HotViolation is one construct forbidden on a //srclint:hotpath path.
type HotViolation struct {
	Pos  token.Pos
	What string
}

// HotScan walks one function and returns its direct hot-path violations
// plus its hot call sites, both in source order. Excluded from both lists:
//
//   - go-launched calls (concurrent work is off the caller's critical path)
//   - anything inside an error-guarded branch (`if err != nil`, or a
//     condition using errors.Is/As): error handling is declared cold
//   - anything inside the trailing error operand of a return in a function
//     whose last result is an error: constructing the failure report is
//     cold even when the return statement itself is hot. The exemption is
//     positional — it applies only when the return lists every result
//     individually, so `return c.next(x)` (one multi-value passthrough
//     call producing all the results) stays hot: that call IS the hot
//     continuation, not an error being built
//
// Violations suppressed by //srclint:allow hotpath are filtered by the
// callers (Reportf in the analyzer, Covers in Compute), not here.
func HotScan(info *types.Info, n *callgraph.Node) (viols []HotViolation, calls []*ast.CallExpr) {
	body := n.Body()
	if body == nil {
		return nil, nil
	}
	trailingErr := hasTrailingErrorResult(info, n)
	numResults := resultCount(n)
	var stack []ast.Node
	cold := func(x ast.Node) bool { return inColdContext(info, stack, x, trailingErr, numResults) }
	loopDepth := func() int {
		d := 0
		for _, a := range stack {
			switch a.(type) {
			case *ast.ForStmt, *ast.RangeStmt:
				d++
			}
		}
		return d
	}
	ast.Inspect(body, func(x ast.Node) bool {
		if x == nil {
			stack = stack[:len(stack)-1]
			return true
		}
		descend := true
		switch x := x.(type) {
		case *ast.FuncLit:
			return false // its statements belong to its own node
		case *ast.GoStmt:
			return false
		case *ast.CompositeLit:
			if cold(x) {
				break
			}
			switch info.TypeOf(x).Underlying().(type) {
			case *types.Slice:
				viols = append(viols, HotViolation{x.Pos(), "slice composite literal allocates"})
				descend = false
			case *types.Map:
				viols = append(viols, HotViolation{x.Pos(), "map composite literal allocates"})
				descend = false
			default:
				if len(stack) > 0 {
					if u, ok := stack[len(stack)-1].(*ast.UnaryExpr); ok && u.Op == token.AND && u.X == x {
						viols = append(viols, HotViolation{u.Pos(), "composite literal escapes to the heap"})
						descend = false
					}
				}
			}
		case *ast.CallExpr:
			fn := analysis.Callee(info, x)
			if fn != nil && fn.Pkg() != nil {
				switch fn.Pkg().Path() {
				case "fmt":
					if !cold(x) {
						viols = append(viols, HotViolation{x.Pos(), "calls fmt." + fn.Name() + " (formatting allocates)"})
					}
				case "reflect":
					if !cold(x) {
						viols = append(viols, HotViolation{x.Pos(), "calls reflect." + fn.Name()})
					}
				default:
					if !cold(x) {
						calls = append(calls, x)
					}
				}
			} else if !cold(x) {
				calls = append(calls, x)
			}
		case *ast.RangeStmt:
			if _, isMap := info.TypeOf(x.X).Underlying().(*types.Map); isMap && !cold(x) {
				viols = append(viols, HotViolation{x.Pos(), "iterates a map (allocation and nondeterministic order)"})
			}
		case *ast.DeferStmt:
			if loopDepth() > 0 && !cold(x) {
				viols = append(viols, HotViolation{x.Pos(), "defer inside a loop accumulates until return"})
			}
		}
		if descend {
			stack = append(stack, x)
		}
		return descend
	})
	return viols, calls
}

// hasTrailingErrorResult reports whether the function's last result is an
// error.
func hasTrailingErrorResult(info *types.Info, n *callgraph.Node) bool {
	var ft *ast.FuncType
	if n.Decl != nil {
		ft = n.Decl.Type
	} else {
		ft = n.Lit.Type
	}
	if ft.Results == nil || len(ft.Results.List) == 0 {
		return false
	}
	last := ft.Results.List[len(ft.Results.List)-1]
	t := info.TypeOf(last.Type)
	return t != nil && types.Identical(t, types.Universe.Lookup("error").Type())
}

// resultCount counts the function's declared results, expanding grouped
// names ((a, b int) counts two).
func resultCount(n *callgraph.Node) int {
	var ft *ast.FuncType
	if n.Decl != nil {
		ft = n.Decl.Type
	} else {
		ft = n.Lit.Type
	}
	if ft.Results == nil {
		return 0
	}
	count := 0
	for _, f := range ft.Results.List {
		if len(f.Names) > 0 {
			count += len(f.Names)
		} else {
			count++
		}
	}
	return count
}

// inColdContext reports whether node x (whose ancestors, innermost last,
// are on stack) sits in error-handling territory: inside a branch of an
// error-guard if (the guarded body/else, NOT the init or condition — those
// run on the hot path), or inside the trailing error operand of a return.
// The return-operand exemption requires the return to list every result
// positionally (len(Results) == numResults): a lone multi-value call
// produces the hot results too, so it is not an error operand.
func inColdContext(info *types.Info, stack []ast.Node, x ast.Node, trailingErr bool, numResults int) bool {
	child := x
	for i := len(stack) - 1; i >= 0; i-- {
		switch a := stack[i].(type) {
		case *ast.IfStmt:
			if condIsErrorGuard(info, a.Cond) && (within(child, a.Body) || (a.Else != nil && within(child, a.Else))) {
				return true
			}
		case *ast.ReturnStmt:
			if trailingErr && len(a.Results) == numResults && len(a.Results) > 0 && within(child, a.Results[len(a.Results)-1]) {
				return true
			}
		case *ast.CaseClause:
			for _, cond := range a.List {
				if condIsErrorGuard(info, cond) {
					return true
				}
			}
		case *ast.SwitchStmt:
			if a.Tag != nil && exprMentionsError(info, a.Tag) && within(child, a.Body) {
				return true
			}
		case *ast.TypeSwitchStmt:
			if within(child, a.Body) {
				return true // type switches are classification, not hot work
			}
		}
		child = stack[i]
	}
	return false
}

// within reports lexical containment of node in container.
func within(node, container ast.Node) bool {
	return node.Pos() >= container.Pos() && node.End() <= container.End()
}

// condIsErrorGuard reports whether an if condition classifies an error:
// it compares an error-typed operand against nil, or calls errors.Is/As.
func condIsErrorGuard(info *types.Info, cond ast.Expr) bool {
	guard := false
	ast.Inspect(cond, func(x ast.Node) bool {
		if guard {
			return false
		}
		switch x := x.(type) {
		case *ast.BinaryExpr:
			if x.Op == token.NEQ || x.Op == token.EQL {
				if isErrorExpr(info, x.X) || isErrorExpr(info, x.Y) {
					guard = true
					return false
				}
			}
		case *ast.CallExpr:
			if IsErrorsClassify(info, x) {
				guard = true
				return false
			}
		}
		return true
	})
	return guard
}

func exprMentionsError(info *types.Info, e ast.Expr) bool {
	found := false
	ast.Inspect(e, func(x ast.Node) bool {
		if ex, ok := x.(ast.Expr); ok && isErrorExpr(info, ex) {
			found = true
			return false
		}
		return !found
	})
	return found
}

func isErrorExpr(info *types.Info, e ast.Expr) bool {
	t := info.TypeOf(e)
	return t != nil && types.Identical(t, types.Universe.Lookup("error").Type())
}

// ---- hot-unsafe propagation ----------------------------------------------

// ColdpathNode reports whether a declaration is annotated
// //srclint:coldpath. Literals are never cold themselves — they are cold
// only when every call site that reaches them is.
func ColdpathNode(n *callgraph.Node) bool {
	if n.Decl == nil {
		return false
	}
	_, ok := analysis.Directive(n.Decl.Doc, "coldpath")
	return ok
}

// propagateDials spreads the dial property one extra hop through the
// package-local callgraph: a helper whose body calls a dial-ish named
// function already got Dials in directFacts; this marks wrappers that call
// that helper through a function value.
func propagateDials(g *callgraph.Graph, facts []analysis.FuncFact) {
	for _, n := range g.Nodes {
		if facts[n.Index].Dials {
			continue
		}
		for _, e := range n.Out {
			if e.Kind != callgraph.Call {
				continue
			}
			if dialishName(lastNamePart(e.Callee.Name)) {
				facts[n.Index].Dials = true
				break
			}
		}
	}
}

// propagateHotUnsafe computes every function's HotUnsafe description:
// its first direct violation, else the first hot (non-cold, non-go) call
// site whose callee — package-local via the callgraph, cross-package via
// dependency facts — is itself hot-unsafe. Coldpath-annotated functions
// are pruned: they are never hot-unsafe and calls to them carry nothing.
func propagateHotUnsafe(fset *token.FileSet, info *types.Info, pkg *types.Package, g *callgraph.Graph, facts []analysis.FuncFact, dirs *analysis.Directives, dep func(string) *analysis.PackageFacts) {
	hotCalls := make([][]*ast.CallExpr, len(g.Nodes))
	for _, n := range g.Nodes {
		if facts[n.Index].Coldpath {
			continue
		}
		viols, calls := HotScan(info, n)
		hotCalls[n.Index] = calls
		for _, v := range viols {
			posn := fset.Position(v.Pos)
			if dirs.Covers("hotpath", posn) {
				continue
			}
			facts[n.Index].HotUnsafe = fmt.Sprintf("%s (%s:%d)", v.What, filepath.Base(posn.Filename), posn.Line)
			break
		}
	}
	// SCCs come callee-first; re-run each component to a fixpoint so
	// recursion converges. Call sites are examined in source order, so the
	// winning description is deterministic under file-order shuffles.
	for _, scc := range g.SCCs() {
		for changed := true; changed; {
			changed = false
			for _, n := range scc {
				i := n.Index
				if facts[i].HotUnsafe != "" || facts[i].Coldpath {
					continue
				}
				for _, call := range hotCalls[i] {
					if desc := callHotUnsafe(info, pkg, g, facts, call, dep); desc != "" {
						facts[i].HotUnsafe = desc
						changed = true
						break
					}
				}
			}
		}
	}
}

// callHotUnsafe describes the hot-unsafety a call site inherits from its
// callee, or "".
func callHotUnsafe(info *types.Info, pkg *types.Package, g *callgraph.Graph, facts []analysis.FuncFact, call *ast.CallExpr, dep func(string) *analysis.PackageFacts) string {
	for _, callee := range g.Callees(call) {
		if facts[callee.Index].Coldpath {
			continue
		}
		if d := facts[callee.Index].HotUnsafe; d != "" {
			return fmt.Sprintf("calls %s: %s", callee.Name, d)
		}
	}
	fn := analysis.Callee(info, call)
	if fn == nil || fn.Pkg() == nil || fn.Pkg() == pkg {
		return ""
	}
	path := analysis.NormalizePkgPath(fn.Pkg().Path())
	ff := dep(path).Func(FuncName(fn))
	if ff == nil || ff.Coldpath || ff.HotUnsafe == "" {
		return ""
	}
	return fmt.Sprintf("calls %s.%s: %s", path, FuncName(fn), ff.HotUnsafe)
}
