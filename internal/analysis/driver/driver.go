// Package driver runs srclint's analyzers over type-checked packages.
//
// Two modes share the same analysis core:
//
//   - Standalone: `srclint ./...` shells out to `go list -export -deps
//     -json`, type-checks each listed target from source against the
//     compiler's export data, and prints findings. No network and no
//     third-party modules are involved.
//
//   - Vet tool: when invoked by `go vet -vettool=srclint`, the go command
//     drives the unitchecker protocol — a -V=full version query, a -flags
//     query, then one invocation per package with a JSON *.cfg file
//     describing sources and export data. This is the mode CI gates on.
package driver

import (
	"crypto/sha256"
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
	"time"

	"srccache/internal/analysis"
)

// Main implements the srclint command line and returns the process exit
// code: 0 clean, 1 operational failure, 2 findings.
func Main(analyzers []*analysis.Analyzer) int {
	args := os.Args[1:]
	jsonMode := false
	timings := false
	var checks, exclude string
	kept := args[:0:0]
	for _, a := range args {
		switch {
		case a == "-V=full" || a == "--V=full":
			printVersion(true)
			return 0
		case a == "-V" || a == "--V":
			printVersion(false)
			return 0
		case a == "-flags" || a == "--flags":
			// The go command queries the tool's flag set; srclint has no
			// tool-level flags beyond the protocol ones handled here.
			fmt.Println("[]")
			return 0
		case a == "-h" || a == "--help" || a == "-help":
			usage(analyzers)
			return 0
		case a == "-json" || a == "--json":
			// Machine-readable findings: one JSON object per line on
			// stdout (CI turns them into GitHub annotations). Standalone
			// mode only; the vet protocol owns the output format there.
			jsonMode = true
		case a == "-timings" || a == "--timings":
			// Per-analyzer wall time across the whole run, printed to
			// stderr at the end (CI appends it to the job summary).
			timings = true
		case strings.HasPrefix(a, "-checks=") || strings.HasPrefix(a, "--checks="):
			checks = a[strings.Index(a, "=")+1:]
		case strings.HasPrefix(a, "-exclude=") || strings.HasPrefix(a, "--exclude="):
			exclude = a[strings.Index(a, "=")+1:]
		default:
			kept = append(kept, a)
		}
	}
	args = kept
	selected, err := SelectAnalyzers(analyzers, checks, exclude)
	if err != nil {
		fmt.Fprintf(os.Stderr, "srclint: %v\n", err)
		return 1
	}
	staleSkip := staleSkipFor(analyzers, selected)
	if !jsonMode && len(args) == 1 && strings.HasSuffix(args[0], ".cfg") {
		return vetMode(selected, staleSkip, args[0])
	}
	if len(args) == 0 {
		args = []string{"./..."}
	}
	return standalone(selected, staleSkip, args, jsonMode, timings)
}

// staleSkipFor builds the stale-suppression exemption for a -checks/
// -exclude subset: //srclint:allow entries naming a registered but
// unselected check are not reported stale (the run never let their check
// fire). A full selection returns nil so unknown-name entries still rot
// loudly.
func staleSkipFor(all, selected []*analysis.Analyzer) func(string) bool {
	if len(selected) == len(all) {
		return nil
	}
	on := make(map[string]bool, len(selected))
	for _, a := range selected {
		on[a.Name] = true
	}
	known := make(map[string]bool, len(all))
	for _, a := range all {
		known[a.Name] = true
	}
	return func(name string) bool { return known[name] && !on[name] }
}

// SelectAnalyzers applies the -checks/-exclude flags: checks (when
// non-empty) keeps only the named analyzers, exclude then drops names;
// both are comma-separated and an unknown name is an error listing the
// valid ones. Registration order is preserved.
func SelectAnalyzers(all []*analysis.Analyzer, checks, exclude string) ([]*analysis.Analyzer, error) {
	byName := make(map[string]*analysis.Analyzer, len(all))
	names := make([]string, 0, len(all))
	for _, a := range all {
		byName[a.Name] = a
		names = append(names, a.Name)
	}
	parse := func(list, flag string) (map[string]bool, error) {
		if list == "" {
			return nil, nil
		}
		set := make(map[string]bool)
		for _, n := range strings.Split(list, ",") {
			n = strings.TrimSpace(n)
			if n == "" {
				continue
			}
			if byName[n] == nil {
				return nil, fmt.Errorf("-%s: unknown check %q (valid checks: %s)", flag, n, strings.Join(names, ", "))
			}
			set[n] = true
		}
		return set, nil
	}
	want, err := parse(checks, "checks")
	if err != nil {
		return nil, err
	}
	drop, err := parse(exclude, "exclude")
	if err != nil {
		return nil, err
	}
	var out []*analysis.Analyzer
	for _, a := range all {
		if want != nil && !want[a.Name] {
			continue
		}
		if drop[a.Name] {
			continue
		}
		out = append(out, a)
	}
	return out, nil
}

func usage(analyzers []*analysis.Analyzer) {
	fmt.Fprintf(os.Stderr, "srclint: determinism and I/O-error lints for this repository\n\n")
	fmt.Fprintf(os.Stderr, "usage: srclint [packages]           (standalone, defaults to ./...)\n")
	fmt.Fprintf(os.Stderr, "       go vet -vettool=$(which srclint) ./...\n\nchecks:\n")
	for _, a := range analyzers {
		fmt.Fprintf(os.Stderr, "  %-12s %s\n", a.Name, a.Doc)
	}
	fmt.Fprintf(os.Stderr, "\nsuppress a finding with `//srclint:allow <check> [reason]` on or above the line\n")
}

// printVersion emits the version line the go command uses as the tool's
// build ID; the full form hashes the binary so rebuilt tools invalidate
// vet's result cache.
func printVersion(full bool) {
	name := filepath.Base(os.Args[0])
	if !full {
		fmt.Printf("%s version devel\n", name)
		return
	}
	h := sha256.New()
	if f, err := os.Open(os.Args[0]); err == nil {
		io.Copy(h, f)
		f.Close()
	}
	fmt.Printf("%s version devel buildID=%x\n", name, h.Sum(nil))
}

// loadPackage parses and type-checks one package from source against its
// dependencies' export data.
func loadPackage(fset *token.FileSet, imp types.Importer, pkgPath, goVersion string, filenames []string) ([]*ast.File, *types.Package, *types.Info, error) {
	var files []*ast.File
	for _, name := range filenames {
		f, err := parser.ParseFile(fset, name, nil, parser.ParseComments)
		if err != nil {
			return nil, nil, nil, err
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
	conf := types.Config{
		Importer:  imp,
		GoVersion: goVersion,
		Sizes:     types.SizesFor("gc", runtime.GOARCH),
	}
	pkg, err := conf.Check(pkgPath, fset, files, info)
	if err != nil {
		return nil, nil, nil, err
	}
	return files, pkg, info, nil
}

// checkPackage parses and type-checks one package and applies every
// analyzer, returning the diagnostics. staleSkip exempts allow-directives
// for unselected checks from stale reporting (nil on full runs); timings,
// when non-nil, accumulates per-analyzer wall time.
func checkPackage(analyzers []*analysis.Analyzer, fset *token.FileSet, imp types.Importer, pkgPath, goVersion string, filenames []string, staleSkip func(string) bool, timings map[string]time.Duration) ([]analysis.Diagnostic, error) {
	files, pkg, info, err := loadPackage(fset, imp, pkgPath, goVersion, filenames)
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
		start := time.Now()
		if err := a.Run(pass); err != nil {
			return nil, fmt.Errorf("%s: %v", a.Name, err)
		}
		if timings != nil {
			timings[a.Name] += time.Since(start)
		}
	}
	diags = append(diags, dirs.Stale(staleSkip)...)
	sort.Slice(diags, func(i, j int) bool { return diags[i].Pos < diags[j].Pos })
	return diags, nil
}

// printTimings writes the accumulated per-analyzer wall time to stderr,
// longest first, in a fixed "srclint-timing" format CI greps into the job
// summary.
func printTimings(timings map[string]time.Duration) {
	names := make([]string, 0, len(timings))
	for n := range timings {
		names = append(names, n)
	}
	sort.Slice(names, func(i, j int) bool {
		if timings[names[i]] != timings[names[j]] {
			return timings[names[i]] > timings[names[j]]
		}
		return names[i] < names[j]
	})
	for _, n := range names {
		fmt.Fprintf(os.Stderr, "srclint-timing %-14s %v\n", n, timings[n].Round(time.Millisecond))
	}
}

func printDiags(fset *token.FileSet, diags []analysis.Diagnostic) {
	for _, d := range diags {
		fmt.Fprintf(os.Stderr, "%v: %s\n", fset.Position(d.Pos), d.Message)
	}
}

// jsonDiag is the -json wire format: exactly one object per finding, one
// finding per line (NDJSON). CI feeds these to jq to emit GitHub
// annotations; the field set is part of srclint's interface.
type jsonDiag struct {
	Analyzer string `json:"analyzer"`
	File     string `json:"file"`
	Line     int    `json:"line"`
	Message  string `json:"message"`
}

// writeJSONDiags emits diags as NDJSON. File paths are made relative to dir
// (the repo root in practice) when they lie under it, so annotations attach
// to checkout-relative paths.
func writeJSONDiags(w io.Writer, fset *token.FileSet, dir string, diags []analysis.Diagnostic) error {
	enc := json.NewEncoder(w)
	for _, d := range diags {
		posn := fset.Position(d.Pos)
		file := posn.Filename
		if dir != "" {
			if rel, err := filepath.Rel(dir, file); err == nil && !strings.HasPrefix(rel, "..") {
				file = filepath.ToSlash(rel)
			}
		}
		if err := enc.Encode(jsonDiag{
			Analyzer: d.Category,
			File:     file,
			Line:     posn.Line,
			Message:  d.Message,
		}); err != nil {
			return err
		}
	}
	return nil
}

// exportImporter builds a types.Importer that reads gc export data through
// lookup tables produced either by `go list -export` or a vet.cfg.
// importMap translates source-level import paths to canonical package
// paths (identity when nil); packageFile locates each canonical path's
// export data.
func exportImporter(fset *token.FileSet, importMap map[string]string, packageFile map[string]string) types.Importer {
	compiler := importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		file, ok := packageFile[path]
		if !ok {
			return nil, fmt.Errorf("no export data for %q", path)
		}
		return os.Open(file)
	})
	return importerFunc(func(path string) (*types.Package, error) {
		if importMap != nil {
			if mapped, ok := importMap[path]; ok {
				path = mapped
			}
		}
		if path == "unsafe" {
			return types.Unsafe, nil
		}
		return compiler.(types.ImporterFrom).ImportFrom(path, "", 0)
	})
}

type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

// ---- vet tool mode -------------------------------------------------------

// vetConfig mirrors the subset of the go command's vet config JSON that
// srclint needs (see cmd/go/internal/work's buildVetConfig).
type vetConfig struct {
	ID                        string
	Compiler                  string
	Dir                       string
	ImportPath                string
	GoVersion                 string
	GoFiles                   []string
	ImportMap                 map[string]string
	PackageFile               map[string]string
	VetxOnly                  bool
	VetxOutput                string
	SucceedOnTypecheckFailure bool
}

// writeVetx writes the empty facts placeholder the go command requires of
// every vet tool: srclint's analyzers stay within one package, so there
// are no facts to hand to dependents.
func writeVetx(cfg *vetConfig) error {
	if cfg.VetxOutput == "" {
		return nil
	}
	return os.WriteFile(cfg.VetxOutput, nil, 0o666)
}

func vetMode(analyzers []*analysis.Analyzer, staleSkip func(string) bool, cfgFile string) int {
	data, err := os.ReadFile(cfgFile)
	if err != nil {
		fmt.Fprintf(os.Stderr, "srclint: %v\n", err)
		return 1
	}
	var cfg vetConfig
	if err := json.Unmarshal(data, &cfg); err != nil {
		fmt.Fprintf(os.Stderr, "srclint: parsing %s: %v\n", cfgFile, err)
		return 1
	}
	if err := writeVetx(&cfg); err != nil {
		fmt.Fprintf(os.Stderr, "srclint: %v\n", err)
		return 1
	}
	if cfg.VetxOnly {
		return 0 // a dependency-only visit: nothing to compute
	}
	fset := token.NewFileSet()
	imp := exportImporter(fset, cfg.ImportMap, cfg.PackageFile)
	goVersion := cfg.GoVersion
	if goVersion != "" && !strings.HasPrefix(goVersion, "go") {
		goVersion = "go" + goVersion
	}
	diags, err := checkPackage(analyzers, fset, imp, cfg.ImportPath, goVersion, cfg.GoFiles, staleSkip, nil)
	if err != nil {
		if cfg.SucceedOnTypecheckFailure {
			return 0
		}
		fmt.Fprintf(os.Stderr, "srclint: %s: %v\n", cfg.ImportPath, err)
		return 1
	}
	if len(diags) == 0 {
		return 0
	}
	printDiags(fset, diags)
	return 2
}

// ---- standalone mode -----------------------------------------------------

// listPackage is the subset of `go list -json` output the loader uses.
type listPackage struct {
	ImportPath string
	Dir        string
	GoFiles    []string
	Export     string
	Standard   bool
	DepOnly    bool
	Error      *struct{ Err string }
}

func standalone(analyzers []*analysis.Analyzer, staleSkip func(string) bool, patterns []string, jsonMode, timings bool) int {
	pkgs, err := goList(patterns)
	if err != nil {
		fmt.Fprintf(os.Stderr, "srclint: %v\n", err)
		return 1
	}
	cwd, _ := os.Getwd()
	packageFile := make(map[string]string)
	for _, p := range pkgs {
		if p.Export != "" {
			packageFile[p.ImportPath] = p.Export
		}
	}
	fset := token.NewFileSet()
	imp := exportImporter(fset, nil, packageFile)

	var timing map[string]time.Duration
	if timings {
		timing = make(map[string]time.Duration)
	}
	exit := 0
	for _, p := range pkgs {
		if p.DepOnly || p.Standard || len(p.GoFiles) == 0 {
			continue
		}
		if p.Error != nil {
			fmt.Fprintf(os.Stderr, "srclint: %s: %s\n", p.ImportPath, p.Error.Err)
			return 1
		}
		var files []string
		for _, f := range p.GoFiles {
			files = append(files, filepath.Join(p.Dir, f))
		}
		diags, err := checkPackage(analyzers, fset, imp, p.ImportPath, "", files, staleSkip, timing)
		if err != nil {
			fmt.Fprintf(os.Stderr, "srclint: %s: %v\n", p.ImportPath, err)
			return 1
		}
		if len(diags) > 0 {
			if jsonMode {
				if err := writeJSONDiags(os.Stdout, fset, cwd, diags); err != nil {
					fmt.Fprintf(os.Stderr, "srclint: %v\n", err)
					return 1
				}
			} else {
				printDiags(fset, diags)
			}
			exit = 2
		}
	}
	if timing != nil {
		printTimings(timing)
	}
	return exit
}

func goList(patterns []string) ([]*listPackage, error) {
	args := append([]string{"list", "-export", "-deps", "-json"}, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Stderr = os.Stderr
	out, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	var pkgs []*listPackage
	dec := json.NewDecoder(out)
	for {
		p := new(listPackage)
		if err := dec.Decode(p); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("go list: %v", err)
		}
		pkgs = append(pkgs, p)
	}
	if err := cmd.Wait(); err != nil {
		return nil, fmt.Errorf("go list %s: %v", strings.Join(patterns, " "), err)
	}
	return pkgs, nil
}
