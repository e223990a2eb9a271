// Package analysistest runs an analyzer over fixture packages and checks
// its diagnostics against // want comments, mirroring the upstream
// golang.org/x/tools/go/analysis/analysistest contract on top of this
// repository's dependency-free analysis core.
//
// Fixtures live under <testdata>/src in GOPATH-style layout: the fixture
// import path "a/internal/src" is the directory testdata/src/a/internal/src.
// Fixture imports resolve first against other fixture directories, then
// against the standard library (via export data produced by `go list
// -export`, so tests need the go tool on PATH but no network).
//
// An expectation is a trailing comment of the form
//
//	//\x20want "regexp" `another`
//
// on the line where the diagnostic must be reported. Every diagnostic must
// be matched by exactly one expectation and vice versa.
package analysistest

import (
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
	"regexp"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"

	"srccache/internal/analysis"
)

// TestData returns the calling test package's testdata directory.
func TestData() string {
	wd, err := os.Getwd()
	if err != nil {
		panic(err)
	}
	return filepath.Join(wd, "testdata")
}

// Run applies a to each fixture package (named by import path under
// testdata/src) and reports mismatches between diagnostics and // want
// expectations through t.
func Run(t *testing.T, testdata string, a *analysis.Analyzer, pkgPaths ...string) {
	t.Helper()
	l := &loader{
		fset:   token.NewFileSet(),
		srcdir: filepath.Join(testdata, "src"),
		pkgs:   make(map[string]*fixturePkg),
	}
	for _, path := range pkgPaths {
		fp, err := l.load(path)
		if err != nil {
			t.Fatalf("loading fixture %q: %v", path, err)
		}
		checkPackage(t, l, a, fp)
	}
}

type fixturePkg struct {
	pkg   *types.Package
	files []*ast.File
	info  *types.Info
}

type loader struct {
	fset   *token.FileSet
	srcdir string
	pkgs   map[string]*fixturePkg
	std    types.Importer
}

func (l *loader) load(path string) (*fixturePkg, error) {
	if fp, ok := l.pkgs[path]; ok {
		if fp == nil {
			return nil, fmt.Errorf("import cycle through %q", path)
		}
		return fp, nil
	}
	l.pkgs[path] = nil // cycle marker
	dir := filepath.Join(l.srcdir, filepath.FromSlash(path))
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		f, err := parser.ParseFile(l.fset, filepath.Join(dir, e.Name()), nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("no Go files in %s", dir)
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
	conf := types.Config{
		Importer: importerFunc(l.importPkg),
		Sizes:    types.SizesFor("gc", runtime.GOARCH),
	}
	pkg, err := conf.Check(path, l.fset, files, info)
	if err != nil {
		return nil, err
	}
	fp := &fixturePkg{pkg: pkg, files: files, info: info}
	l.pkgs[path] = fp
	return fp, nil
}

// importPkg resolves fixture imports: fixture directories win, everything
// else is assumed to be standard library.
func (l *loader) importPkg(path string) (*types.Package, error) {
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	if st, err := os.Stat(filepath.Join(l.srcdir, filepath.FromSlash(path))); err == nil && st.IsDir() {
		fp, err := l.load(path)
		if err != nil {
			return nil, err
		}
		return fp.pkg, nil
	}
	if l.std == nil {
		l.std = stdImporter(l.fset)
	}
	return l.std.Import(path)
}

type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

// stdExports maps standard-library package paths to export-data files,
// produced once per test process by `go list -export`.
var (
	stdOnce    sync.Once
	stdFiles   map[string]string
	stdListErr error
)

func stdImporter(fset *token.FileSet) types.Importer {
	stdOnce.Do(func() {
		stdFiles, stdListErr = listStdExports()
	})
	return importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		if stdListErr != nil {
			return nil, stdListErr
		}
		file, ok := stdFiles[path]
		if !ok {
			return nil, fmt.Errorf("no export data for %q (not in `go list -export std` output)", path)
		}
		return os.Open(file)
	})
}

func listStdExports() (map[string]string, error) {
	cmd := exec.Command("go", "list", "-export", "-deps", "-json=ImportPath,Export", "std")
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go list -export std: %v", err)
	}
	files := make(map[string]string)
	dec := json.NewDecoder(strings.NewReader(string(out)))
	for {
		var p struct{ ImportPath, Export string }
		if err := dec.Decode(&p); err == io.EOF {
			break
		} else if err != nil {
			return nil, err
		}
		if p.Export != "" {
			files[p.ImportPath] = p.Export
		}
	}
	return files, nil
}

// ---- expectation checking ------------------------------------------------

type expectation struct {
	file string
	line int
	re   *regexp.Regexp
	used bool
}

func checkPackage(t *testing.T, l *loader, a *analysis.Analyzer, fp *fixturePkg) {
	t.Helper()
	fset := l.fset
	var diags []analysis.Diagnostic
	pass := &analysis.Pass{
		Analyzer:  a,
		Fset:      fset,
		Files:     fp.files,
		Pkg:       fp.pkg,
		TypesInfo: fp.info,
		Report:    func(d analysis.Diagnostic) { diags = append(diags, d) },
	}
	if err := a.Run(pass); err != nil {
		t.Fatalf("%s: %v", a.Name, err)
	}
	sort.Slice(diags, func(i, j int) bool { return diags[i].Pos < diags[j].Pos })

	wants, err := collectWants(fset, fp.files)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range diags {
		posn := fset.Position(d.Pos)
		matched := false
		for _, w := range wants {
			if w.used || w.file != posn.Filename || w.line != posn.Line {
				continue
			}
			if w.re.MatchString(d.Message) {
				w.used = true
				matched = true
				break
			}
		}
		if !matched {
			t.Errorf("%v: unexpected diagnostic: %s", posn, d.Message)
		}
	}
	for _, w := range wants {
		if !w.used {
			t.Errorf("%s:%d: expected diagnostic matching %q, got none", w.file, w.line, w.re)
		}
	}
}

var wantTokenRe = regexp.MustCompile("\"(?:[^\"\\\\]|\\\\.)*\"|`[^`]*`")

func collectWants(fset *token.FileSet, files []*ast.File) ([]*expectation, error) {
	var out []*expectation
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				rest, ok := strings.CutPrefix(c.Text, "// want ")
				if !ok {
					continue
				}
				posn := fset.Position(c.Slash)
				for _, tok := range wantTokenRe.FindAllString(rest, -1) {
					pat, err := strconv.Unquote(tok)
					if err != nil {
						return nil, fmt.Errorf("%v: bad want token %s: %v", posn, tok, err)
					}
					re, err := regexp.Compile(pat)
					if err != nil {
						return nil, fmt.Errorf("%v: bad want regexp %q: %v", posn, pat, err)
					}
					out = append(out, &expectation{file: posn.Filename, line: posn.Line, re: re})
				}
			}
		}
	}
	return out, nil
}
