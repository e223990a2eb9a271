// Package analysis is a minimal, dependency-free re-implementation of the
// golang.org/x/tools/go/analysis vocabulary, just large enough to host this
// repository's lints (srclint; internal/analysis/driver runs them). Every
// analyzer sees one type-checked package at a time; nothing crosses
// package boundaries.
//
// The real x/tools module is deliberately not imported: the build must work
// from a bare Go toolchain with an empty module cache. Analyzers written
// against this package follow the upstream shape (Analyzer with a Run
// function over a Pass) so they could be ported to x/tools mechanically if
// the dependency ever becomes available.
//
// Suppression: a diagnostic is suppressed when the offending line, or the
// line directly above it, carries a
//
//	//srclint:allow <name>[,<name>...] [reason]
//
// comment naming the analyzer. Suppressions are deliberate, reviewable
// escape hatches (e.g. the progress timers that are allowed to read the
// wall clock).
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// An Analyzer describes one named check over a single package.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and in
	// //srclint:allow directives. It must be a lower-case identifier.
	Name string

	// Run applies the analyzer to a package. Diagnostics are delivered
	// through Pass.Report; the error return is for operational failures
	// only (it aborts the whole run).
	Run func(*Pass) error
}

// A Pass is one application of one analyzer to one type-checked package.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info

	// Report delivers one diagnostic. The driver fills it in.
	Report func(Diagnostic)

	// Dirs holds the package's parsed //srclint:allow directives. The
	// driver, the only code that builds a Pass, shares one Directives
	// across every analyzer's pass so that suppressions which never fire
	// can be reported as stale.
	Dirs *Directives
}

// A Diagnostic is one finding at a source position.
type Diagnostic struct {
	Pos      token.Pos
	Category string // analyzer name
	Message  string
}

type fileLine struct {
	file string
	line int
}

// Reportf reports a formatted diagnostic at pos unless an
// //srclint:allow directive for this analyzer covers it.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	if p.Allowed(p.Analyzer.Name, pos) {
		return
	}
	p.Report(Diagnostic{
		Pos:      pos,
		Category: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// Allowed reports whether a //srclint:allow directive for the named check
// covers pos: the directive sits either on the same line (trailing comment)
// or on the line directly above the offending one. A directive that covers
// a diagnostic is marked used; the driver reports the ones that never fire
// as stale (check name "staleallow").
func (p *Pass) Allowed(name string, pos token.Pos) bool {
	return p.Dirs.Covers(name, p.Fset.Position(pos))
}

const allowPrefix = "//srclint:allow"

// An allowEntry is one (directive, check name) pair: a directive naming
// three checks contributes three entries, each tracked for staleness on its
// own.
type allowEntry struct {
	name string
	at   fileLine
	pos  token.Pos
	used bool
}

// Directives is the parsed set of a package's //srclint:allow comments,
// with per-entry usage tracking. One Directives is shared across every
// analyzer applied to the package.
type Directives struct {
	entries []*allowEntry
	// byName indexes entries by check name and directive position.
	byName map[string]map[fileLine]*allowEntry
}

// ParseDirectives collects the //srclint:allow directives of a package's
// files. The directive payload is one comma-separated list of check names
// (no spaces) followed by free-form reason text: the name list ends at the
// first whitespace, so reason words can never be mistaken for check names.
func ParseDirectives(fset *token.FileSet, files []*ast.File) *Directives {
	d := &Directives{byName: make(map[string]map[fileLine]*allowEntry)}
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				rest, ok := strings.CutPrefix(c.Text, allowPrefix)
				if !ok {
					continue
				}
				posn := fset.Position(c.Slash)
				at := fileLine{posn.Filename, posn.Line}
				nameList, _, _ := strings.Cut(strings.TrimLeft(rest, " \t"), " ")
				nameList, _, _ = strings.Cut(nameList, "\t")
				for _, name := range strings.Split(nameList, ",") {
					if !isCheckName(name) {
						continue // stray comma or malformed name
					}
					e := &allowEntry{name: name, at: at, pos: c.Slash}
					d.entries = append(d.entries, e)
					if d.byName[name] == nil {
						d.byName[name] = make(map[fileLine]*allowEntry)
					}
					d.byName[name][at] = e
				}
			}
		}
	}
	return d
}

// Covers reports whether a directive for the named check covers a
// diagnostic at posn (same line or the line directly above), marking any
// matching directive entry as used.
func (d *Directives) Covers(name string, posn token.Position) bool {
	lines := d.byName[name]
	if lines == nil {
		return false
	}
	covered := false
	if e := lines[fileLine{posn.Filename, posn.Line}]; e != nil {
		e.used = true
		covered = true
	}
	if e := lines[fileLine{posn.Filename, posn.Line - 1}]; e != nil {
		e.used = true
		covered = true
	}
	return covered
}

// Stale returns one diagnostic per directive entry that suppressed no
// diagnostic in this package (including entries naming a check that does
// not exist), so suppressions cannot rot. Stale-allow findings are not
// themselves suppressible.
func (d *Directives) Stale() []Diagnostic {
	var out []Diagnostic
	for _, e := range d.entries {
		if e.used {
			continue
		}
		out = append(out, Diagnostic{
			Pos:      e.pos,
			Category: "staleallow",
			Message: fmt.Sprintf(
				"//srclint:allow %s suppresses no diagnostic in this package; delete the stale directive (or fix its check name)",
				e.name),
		})
	}
	return out
}

func isCheckName(s string) bool {
	if s == "" {
		return false
	}
	for _, r := range s {
		if r < 'a' || r > 'z' {
			return false
		}
	}
	return true
}

// Callee resolves the function or method a call expression invokes: method
// values (including interface methods) via info.Selections, plain and
// package-qualified calls via info.Uses. It returns nil for calls through
// function-typed variables, builtins, and conversions.
func Callee(info *types.Info, call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		fn, _ := info.Uses[fun].(*types.Func)
		return fn
	case *ast.SelectorExpr:
		if sel := info.Selections[fun]; sel != nil {
			fn, _ := sel.Obj().(*types.Func)
			return fn
		}
		fn, _ := info.Uses[fun.Sel].(*types.Func)
		return fn
	}
	return nil
}

// NormalizePkgPath maps the package-path spellings produced by the go
// command's test builds back to the underlying package path:
// "p [p.test]" (test variant), "p.test" (generated test main) and
// "p_test" (external test package) all normalize to "p", so a package's
// tests inherit its contract.
func NormalizePkgPath(path string) string {
	if i := strings.Index(path, " ["); i >= 0 {
		path = path[:i]
	}
	path = strings.TrimSuffix(path, ".test")
	path = strings.TrimSuffix(path, "_test")
	return path
}

// PathMatches reports whether the (normalized) package path equals one of
// the target paths or ends in "/"+target. Matching by suffix keeps the
// analyzers testable against fixture modules, whose import paths start at
// another root ("l/internal/blockdev").
func PathMatches(path string, targets []string) bool {
	path = NormalizePkgPath(path)
	for _, t := range targets {
		if path == t || strings.HasSuffix(path, "/"+t) {
			return true
		}
	}
	return false
}

// SimPackages lists the package-path suffixes bound by the determinism
// contract (DESIGN.md §8): simulation results and generated traces must be
// a pure function of the configuration and seeds, so these packages may not
// consult the wall clock and may not draw from global math/rand state.
var SimPackages = []string{
	"internal/src",
	"internal/raid",
	"internal/flash",
	"internal/blockdev",
	"internal/experiments",
	"internal/baseline",
	// bench.Run drives the measured tables, and primary (over netlink) is
	// the backing store of every cache experiment.
	"internal/bench",
	"internal/primary",
	"internal/netlink",
	"internal/costmodel",
	"internal/workload",
	"internal/trace",
	"internal/ssd",
	"internal/hdd",
	"internal/chaos",
	"internal/stats",
	"internal/engine",
	// The cluster protocol runs in virtual time under the churn seeds:
	// every clock read goes through cluster.Transport, so the only
	// sanctioned wall-clock sites are fleet's TCP transport and
	// Supervisor.Start's ticker, each marked //srclint:allow determinism.
	"internal/cluster",
	"internal/cluster/churn",
	"internal/cluster/fleet",
	"internal/cluster/supervisor",
}

// IOErrPackages lists the package-path suffixes whose Read/Write/Flush/
// Trim/Submit errors must never be dropped: losing a blockdev or raid
// error silently converts an injected device fault into a wrong result.
var IOErrPackages = []string{
	"internal/blockdev",
	"internal/raid",
}

// LockHeldPackages lists the package-path suffixes whose I/O calls must not
// be made under a held mutex (lockheld): a device or socket call there can
// block for a device's latency, or on a response that needs the same lock.
var LockHeldPackages = []string{
	"internal/blockdev",
	"internal/raid",
	"internal/netblock",
}
