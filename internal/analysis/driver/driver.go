// Package driver runs srclint's analyzers over the repository's type-checked
// packages. The lint gate is this package's TestTreeClean, so `go test
// ./...` runs it; there is no command and there are no flags.
//
// The checks (DESIGN.md §8) are registered in analyzers:
//
//	determinism  simulation packages use internal/vtime and injected seeded
//	             *rand.Rand values: no host clock, no global math/rand
//	maprange     map iteration order must not reach slices or writers unsorted
//	ioerr        blockdev/raid I/O errors are never discarded, and once
//	             bound are read on every path
//	lockheld     no sync.Mutex/RWMutex held across blockdev/raid/netblock I/O
//
// A finding is suppressed by //srclint:allow <check>[,<check>...] [reason]
// on or directly above its line; a directive that suppresses nothing is
// itself reported (staleallow). Test files are held to the same contracts
// as the code they test.
package driver

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"

	"srccache/internal/analysis"
	"srccache/internal/analysis/determinism"
	"srccache/internal/analysis/ioerr"
	"srccache/internal/analysis/lockheld"
	"srccache/internal/analysis/maprange"
)

// analyzers is the registration list: every check the gate runs.
var analyzers = []*analysis.Analyzer{
	determinism.Analyzer,
	maprange.Analyzer,
	ioerr.Analyzer,
	lockheld.Analyzer,
}

// A Finding is one diagnostic the gate reports.
type Finding struct {
	Pos     token.Position
	Check   string // analyzer name, or "staleallow"
	Message string
}

// String formats f as "file:line:col: [check] message".
func (f Finding) String() string { return fmt.Sprintf("%v: [%s] %s", f.Pos, f.Check, f.Message) }

// Check runs `go list` in dir over patterns, applies every registered
// analyzer to each listed package, test files included, and returns the
// findings in package and position order. The error is for a package that
// does not list, parse or type-check.
func Check(dir string, patterns ...string) ([]Finding, error) {
	units, exports, err := list(dir, patterns)
	if err != nil {
		return nil, err
	}
	var out []Finding
	for _, u := range units {
		fset := token.NewFileSet()
		diags, err := checkPackage(fset, exportImporter(fset, u.importMap, exports), u.path, u.files)
		if err != nil {
			return nil, fmt.Errorf("%s: %v", u.path, err)
		}
		for _, d := range diags {
			out = append(out, Finding{fset.Position(d.Pos), d.Category, d.Message})
		}
	}
	return out, nil
}

// A unit is one package as the gate checks it.
type unit struct {
	path      string            // the go command's ID, e.g. "p [p.test]"
	files     []string          // absolute source paths
	importMap map[string]string // source import path -> ID
}

// listPackage is the subset of `go list -json` output the loader uses.
type listPackage struct {
	ImportPath  string
	ForTest     string
	Dir         string
	GoFiles     []string
	TestGoFiles []string
	ImportMap   map[string]string
	Export      string
	Standard    bool
	DepOnly     bool
	Error       *struct{ Err string }
}

// list runs `go list -test -export -deps -json` over patterns in dir (the
// current directory when empty) and returns the units to check, plus the
// export-data file of every listed package by ID. A package with in-package tests is checked as its test variant
// "p [p.test]", whose GoFiles hold its TestGoFiles too; external test
// packages "p_test [p.test]" are units of their own. Dependencies
// recompiled for another package's test and generated test mains are not.
func list(dir string, patterns []string) ([]unit, map[string]string, error) {
	cmd := exec.Command("go", append([]string{"list", "-test", "-export", "-deps", "-json"}, patterns...)...)
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, nil, fmt.Errorf("go list %s: %v\n%s", strings.Join(patterns, " "), err, stderr.Bytes())
	}
	var units []unit
	exports := make(map[string]string)
	dec := json.NewDecoder(bytes.NewReader(out))
	for {
		var p listPackage
		if err := dec.Decode(&p); err == io.EOF {
			break
		} else if err != nil {
			return nil, nil, fmt.Errorf("go list: %v", err)
		}
		if p.Export != "" {
			exports[p.ImportPath] = p.Export
		}
		if p.DepOnly || p.Standard || strings.HasSuffix(p.ImportPath, ".test") ||
			(p.ForTest == "" && len(p.TestGoFiles) > 0) {
			continue
		}
		if p.Error != nil {
			return nil, nil, fmt.Errorf("%s: %s", p.ImportPath, p.Error.Err)
		}
		u := unit{path: p.ImportPath, importMap: p.ImportMap}
		for _, f := range p.GoFiles {
			u.files = append(u.files, filepath.Join(p.Dir, f))
		}
		units = append(units, u)
	}
	return units, exports, nil
}

// checkPackage parses and type-checks one package against its
// dependencies' export data, applies every registered analyzer, and returns
// the diagnostics in position order, stale suppressions included. It is
// the only place a lint Pass is built.
func checkPackage(fset *token.FileSet, imp types.Importer, pkgPath string, filenames []string) ([]analysis.Diagnostic, error) {
	var files []*ast.File
	for _, name := range filenames {
		f, err := parser.ParseFile(fset, name, nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Implicits:  make(map[ast.Node]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Scopes:     make(map[ast.Node]*types.Scope),
		Instances:  make(map[*ast.Ident]types.Instance),
	}
	conf := types.Config{Importer: imp, Sizes: types.SizesFor("gc", runtime.GOARCH)}
	pkg, err := conf.Check(pkgPath, fset, files, info)
	if err != nil {
		return nil, err
	}
	var diags []analysis.Diagnostic
	// One Directives set is shared by every analyzer so that, after they
	// all ran, suppressions which fired for none of them can be reported as
	// stale instead of silently rotting.
	dirs := analysis.ParseDirectives(fset, files)
	for _, a := range analyzers {
		pass := &analysis.Pass{
			Analyzer:  a,
			Fset:      fset,
			Files:     files,
			Pkg:       pkg,
			TypesInfo: info,
			Report:    func(d analysis.Diagnostic) { diags = append(diags, d) },
			Dirs:      dirs,
		}
		if err := a.Run(pass); err != nil {
			return nil, fmt.Errorf("%s: %v", a.Name, err)
		}
	}
	diags = append(diags, dirs.Stale()...)
	sort.Slice(diags, func(i, j int) bool { return diags[i].Pos < diags[j].Pos })
	return diags, nil
}

// exportImporter builds a types.Importer that reads gc export data.
// importMap translates source-level import paths to package IDs (a test
// variant's recompiled dependencies); exports locates each ID's export
// data.
func exportImporter(fset *token.FileSet, importMap, exports map[string]string) types.Importer {
	compiler := importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		file, ok := exports[path]
		if !ok {
			return nil, fmt.Errorf("no export data for %q", path)
		}
		return os.Open(file)
	})
	return importerFunc(func(path string) (*types.Package, error) {
		if mapped, ok := importMap[path]; ok {
			path = mapped
		}
		if path == "unsafe" {
			return types.Unsafe, nil
		}
		return compiler.(types.ImporterFrom).ImportFrom(path, "", 0)
	})
}

type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }
