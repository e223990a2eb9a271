// Package determinism forbids the two ways nondeterminism enters a
// simulation package: reading the host clock and drawing from global
// math/rand state.
//
// Every experiment table must be byte-identical across runs and across
// parallelism levels, so simulation code operates on internal/vtime and on
// injected, explicitly seeded *rand.Rand values exclusively. time.Duration
// values and constants remain fine — only the functions that observe or
// wait on the host clock are banned, and a seed taken from time.Now is
// caught as the clock read it is. The math/rand constructors (rand.New,
// rand.NewSource, rand.NewZipf, ...) stay legal: they are how the injected
// generator is built. The two legitimate progress-timer sites carry
// //srclint:allow determinism directives.
package determinism

import (
	"go/ast"
	"go/types"

	"srccache/internal/analysis"
)

// Analyzer implements the determinism check.
var Analyzer = &analysis.Analyzer{
	Name: "determinism",
	Doc:  "simulation packages use internal/vtime and injected seeded *rand.Rand: no time.Now/Sleep/..., no global math/rand",
	Run:  run,
}

// clockFuncs lists the time package functions that observe or wait on the
// host clock. Conversions and constants (time.Duration, time.Millisecond,
// ...) are allowed: internal/vtime deliberately mirrors them.
var clockFuncs = map[string]bool{
	"Now":       true,
	"Since":     true,
	"Until":     true,
	"Sleep":     true,
	"Tick":      true,
	"After":     true,
	"AfterFunc": true,
	"NewTimer":  true,
	"NewTicker": true,
}

// randConstructors are the package-level math/rand (and v2) functions that
// build generator state rather than draw from the global one.
var randConstructors = map[string]bool{
	"New":        true,
	"NewSource":  true,
	"NewZipf":    true,
	"NewPCG":     true, // math/rand/v2
	"NewChaCha8": true, // math/rand/v2
}

func run(pass *analysis.Pass) error {
	if !analysis.PathMatches(pass.Pkg.Path(), analysis.SimPackages) {
		return nil
	}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
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
			name := sel.Sel.Name
			switch pkg.Imported().Path() {
			case "time":
				if clockFuncs[name] {
					pass.Reportf(sel.Pos(),
						"time.%s reads the wall clock; simulation code must use internal/vtime (//srclint:allow determinism to override)",
						name)
				}
			case "math/rand", "math/rand/v2":
				// Only package-level functions draw from the global state;
				// rand.Rand, rand.Source and friends resolve to type names.
				if _, isFunc := pass.TypesInfo.Uses[sel.Sel].(*types.Func); isFunc && !randConstructors[name] {
					pass.Reportf(sel.Pos(),
						"rand.%s uses global math/rand state; draw from an injected seeded *rand.Rand (//srclint:allow determinism to override)",
						name)
				}
			}
			return true
		})
	}
	return nil
}
