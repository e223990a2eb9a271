// Package hotpath enforces DESIGN.md §8 rule 11: functions annotated
// //srclint:hotpath — the engine's Do, the netblock frame loop and the
// src.Cache read/write path — and everything they transitively call must stay free
// of the allocation and reflection patterns that wreck p99 latency:
//
//   - slice and map composite literals, and address-of composite literals
//     (heap escapes);
//   - calls into fmt and reflect;
//   - ranging over a map (randomized order, hash-walk cost);
//   - defer inside a loop (defers accumulate until function exit).
//
// Error paths are exempt: code under an `err != nil`-style guard, the
// trailing error operand of a return, and functions annotated
// //srclint:coldpath <reason> (declared slow paths like GC and repair) are
// not part of the hot path even when called from it. Goroutine launches
// (`go f()`) leave the hot path by definition.
//
// Infection crosses package boundaries through the modular facts layer: a
// package exports a HotUnsafe summary for each function that (transitively,
// through its own callees) violates the rules, and a hot caller in another
// package reports any call to a HotUnsafe function.
package hotpath

import (
	"go/ast"
	"strings"

	"srccache/internal/analysis"
	"srccache/internal/analysis/callgraph"
	"srccache/internal/analysis/modfacts"
)

// Analyzer is the hotpath check.
var Analyzer = &analysis.Analyzer{
	Name: "hotpath",
	Doc:  "//srclint:hotpath functions transitively forbid heap-escaping literals, fmt/reflect, map iteration, and defer-in-loop",
	Run:  run,
}

func run(pass *analysis.Pass) error {
	files := nonTestFiles(pass)
	if !hasHotRoot(files) {
		return nil // no roots, nothing can be hot — skip the callgraph cost
	}
	g := callgraph.Build(pass.Fset, files, pass.TypesInfo)

	// BFS from the annotated roots over the local callgraph. `rootOf`
	// remembers which annotation made each node hot, for diagnostics.
	rootOf := make(map[*callgraph.Node]string)
	var queue []*callgraph.Node
	for _, n := range g.Nodes {
		if n.Decl != nil {
			if _, ok := analysis.Directive(n.Decl.Doc, "hotpath"); ok {
				rootOf[n] = n.Name
				queue = append(queue, n)
			}
		}
	}

	for len(queue) > 0 {
		n := queue[0]
		queue = queue[1:]
		root := rootOf[n]

		viols, calls := modfacts.HotScan(pass.TypesInfo, n)
		for _, v := range viols {
			pass.Reportf(v.Pos, "%s on the hot path (root %s); move it off the //srclint:hotpath path or annotate a //srclint:coldpath boundary", v.What, root)
		}
		for _, call := range calls {
			// Local flow-resolved callees join the hot set.
			for _, callee := range g.Callees(call) {
				if modfacts.ColdpathNode(callee) {
					continue
				}
				if _, seen := rootOf[callee]; !seen {
					rootOf[callee] = root
					queue = append(queue, callee)
				}
			}
			// Cross-package callees are judged by their HotUnsafe fact.
			if why, name := crossUnsafe(pass, call); why != "" {
				pass.Reportf(call.Pos(), "call to %s on the hot path (root %s): %s", name, root, why)
			}
		}
	}
	return nil
}

// crossUnsafe reports a cross-package callee's HotUnsafe description (and a
// display name), or "" when the callee is local, fact-free, or hot-clean.
func crossUnsafe(pass *analysis.Pass, call *ast.CallExpr) (why, name string) {
	fn := analysis.Callee(pass.TypesInfo, call)
	if fn == nil || fn.Pkg() == nil || fn.Pkg() == pass.Pkg {
		return "", ""
	}
	fname := modfacts.FuncName(fn)
	ff := pass.ImportedFacts(analysis.NormalizePkgPath(fn.Pkg().Path())).Func(fname)
	if ff == nil || ff.Coldpath || ff.HotUnsafe == "" {
		return "", ""
	}
	return ff.HotUnsafe, fn.Pkg().Name() + "." + fname
}

func hasHotRoot(files []*ast.File) bool {
	for _, f := range files {
		for _, d := range f.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok {
				if _, ok := analysis.Directive(fd.Doc, "hotpath"); ok {
					return true
				}
			}
		}
	}
	return false
}

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
