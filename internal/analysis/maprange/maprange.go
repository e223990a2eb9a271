// Package maprange flags map iterations whose order can leak into output.
//
// Go randomizes map iteration order per run, so a `for k := range m` loop
// that appends to a slice which outlives the loop, or that writes to an
// io.Writer, produces output whose order varies run to run — the exact
// hazard that would break the byte-identical experiment tables. Iterations
// that merely aggregate (sum into a scalar, fill another map) are order
// insensitive and stay legal, as does the canonical fix: collect the keys
// (or values) into a slice and sort it before use. A loop whose only
// escaping appends feed slices that are later passed to a sort function is
// therefore not flagged.
package maprange

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"srccache/internal/analysis"
)

// Analyzer implements the maprange check.
var Analyzer = &analysis.Analyzer{
	Name: "maprange",
	Run:  run,
}

// ioWriter is a structural copy of io.Writer, so implementation checks do
// not depend on having the real io package's type object at hand (fixture
// packages in tests may not import io).
var ioWriter = func() *types.Interface {
	sig := types.NewSignatureType(nil, nil, nil,
		types.NewTuple(types.NewVar(token.NoPos, nil, "p", types.NewSlice(types.Typ[types.Byte]))),
		types.NewTuple(
			types.NewVar(token.NoPos, nil, "n", types.Typ[types.Int]),
			types.NewVar(token.NoPos, nil, "err", types.Universe.Lookup("error").Type())),
		false)
	i := types.NewInterfaceType([]*types.Func{
		types.NewFunc(token.NoPos, nil, "Write", sig),
	}, nil)
	i.Complete()
	return i
}()

var writeMethods = map[string]bool{
	"Write":       true,
	"WriteString": true,
	"WriteByte":   true,
	"WriteRune":   true,
}

var sortFuncs = map[string]map[string]bool{
	"sort": {
		"Sort": true, "Stable": true, "Slice": true, "SliceStable": true,
		"Strings": true, "Ints": true, "Float64s": true,
	},
	"slices": {
		"Sort": true, "SortFunc": true, "SortStableFunc": true,
	},
}

func run(pass *analysis.Pass) error {
	for _, f := range pass.Files {
		sorted := sortedObjects(pass, f)
		ast.Inspect(f, func(n ast.Node) bool {
			rng, ok := n.(*ast.RangeStmt)
			if !ok {
				return true
			}
			t := pass.TypesInfo.TypeOf(rng.X)
			if t == nil {
				return true
			}
			if _, ok := t.Underlying().(*types.Map); !ok {
				return true
			}
			checkLoop(pass, rng, sorted)
			return true
		})
	}
	return nil
}

// checkLoop inspects one range-over-map loop for ordered sinks.
func checkLoop(pass *analysis.Pass, rng *ast.RangeStmt, sorted map[types.Object]bool) {
	var appendTargets []types.Object
	trackable := true
	var writerPos token.Pos

	ast.Inspect(rng.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			for i, rhs := range n.Rhs {
				if !isAppendCall(pass, rhs) || i >= len(n.Lhs) {
					continue
				}
				obj := targetObject(pass, n.Lhs[i])
				if obj == nil {
					trackable = false // can't prove it gets sorted
					continue
				}
				if declaredWithin(obj, rng.Body) {
					continue // loop-local scratch, dies with the iteration
				}
				appendTargets = append(appendTargets, obj)
			}
		case *ast.CallExpr:
			if writerPos == token.NoPos && isWriterCall(pass, n) {
				writerPos = n.Pos()
			}
		}
		return true
	})

	switch {
	case writerPos != token.NoPos:
		pass.Reportf(rng.For,
			"range over map writes to an io.Writer in map order; iterate sorted keys instead (//srclint:allow maprange to override)")
	case !trackable:
		pass.Reportf(rng.For,
			"range over map appends in map order to a slice that outlives the loop; sort before use (//srclint:allow maprange to override)")
	default:
		for _, obj := range appendTargets {
			if !sorted[obj] {
				pass.Reportf(rng.For,
					"range over map appends to %q in map order and %q is never sorted; collect and sort keys first (//srclint:allow maprange to override)",
					obj.Name(), obj.Name())
				return
			}
		}
	}
}

// isAppendCall reports whether e is a call to the append builtin.
func isAppendCall(pass *analysis.Pass, e ast.Expr) bool {
	call, ok := e.(*ast.CallExpr)
	if !ok {
		return false
	}
	id, ok := call.Fun.(*ast.Ident)
	if !ok {
		return false
	}
	b, ok := pass.TypesInfo.Uses[id].(*types.Builtin)
	return ok && b.Name() == "append"
}

// targetObject resolves the assignment target to a variable object:
// a plain identifier or a field selector. Index expressions and other
// shapes are not tracked.
func targetObject(pass *analysis.Pass, e ast.Expr) types.Object {
	switch e := e.(type) {
	case *ast.Ident:
		return pass.TypesInfo.ObjectOf(e)
	case *ast.SelectorExpr:
		return pass.TypesInfo.ObjectOf(e.Sel)
	}
	return nil
}

// declaredWithin reports whether obj's declaration lies inside node.
func declaredWithin(obj types.Object, node ast.Node) bool {
	return obj.Pos() >= node.Pos() && obj.Pos() < node.End()
}

// isWriterCall reports whether call writes to an io.Writer: either a
// fmt.Fprint* call or a Write/WriteString/WriteByte/WriteRune method on a
// value implementing io.Writer.
func isWriterCall(pass *analysis.Pass, call *ast.CallExpr) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return false
	}
	if id, ok := sel.X.(*ast.Ident); ok {
		if pkg, ok := pass.TypesInfo.Uses[id].(*types.PkgName); ok {
			return pkg.Imported().Path() == "fmt" && strings.HasPrefix(sel.Sel.Name, "Fprint")
		}
	}
	if !writeMethods[sel.Sel.Name] {
		return false
	}
	recv := pass.TypesInfo.TypeOf(sel.X)
	if recv == nil {
		return false
	}
	if types.Implements(recv, ioWriter) {
		return true
	}
	if _, isPtr := recv.Underlying().(*types.Pointer); !isPtr {
		return types.Implements(types.NewPointer(recv), ioWriter)
	}
	return false
}

// sortedObjects collects the variable objects that are passed to a sort
// function anywhere in the file. Conversions wrapping the argument
// (sort.Sort(byAge(people))) are looked through.
func sortedObjects(pass *analysis.Pass, f *ast.File) map[types.Object]bool {
	out := make(map[types.Object]bool)
	ast.Inspect(f, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || len(call.Args) == 0 {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		id, ok := sel.X.(*ast.Ident)
		if !ok {
			return true
		}
		pkg, ok := pass.TypesInfo.Uses[id].(*types.PkgName)
		if !ok {
			return true
		}
		names := sortFuncs[pkg.Imported().Path()]
		if names == nil || !names[sel.Sel.Name] {
			return true
		}
		arg := call.Args[0]
		for {
			if inner, ok := arg.(*ast.CallExpr); ok && len(inner.Args) == 1 {
				arg = inner.Args[0] // conversion like byAge(people)
				continue
			}
			break
		}
		if obj := targetObject(pass, arg); obj != nil {
			out[obj] = true
		}
		return true
	})
	return out
}
