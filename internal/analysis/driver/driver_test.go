package driver

import (
	"bytes"
	"encoding/json"
	"go/token"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"srccache/internal/analysis"
	"srccache/internal/analysis/determinism"
	"srccache/internal/analysis/flushepoch"
	"srccache/internal/analysis/ioerr"
	"srccache/internal/analysis/lockheld"
	"srccache/internal/analysis/maprange"
)

// allAnalyzers mirrors cmd/srclint's registration list: all five checks.
var allAnalyzers = []*analysis.Analyzer{
	determinism.Analyzer,
	maprange.Analyzer,
	ioerr.Analyzer,
	lockheld.Analyzer,
	flushepoch.Analyzer,
}

// TestJSONSchema pins the -json wire format: one object per line with
// exactly the fields {analyzer, file, line, message}, paths relative to the
// given root. Every registered analyzer name must survive the round trip —
// the CI lint job greps these names out of the NDJSON stream.
func TestJSONSchema(t *testing.T) {
	fset := token.NewFileSet()
	f := fset.AddFile("/repo/internal/src/gc.go", -1, 1000)
	f.SetLines([]int{0, 100, 200, 300})
	pos := f.LineStart(3)

	var diags []analysis.Diagnostic
	for _, a := range allAnalyzers {
		diags = append(diags, analysis.Diagnostic{
			Pos: pos, Category: a.Name, Message: "finding from " + a.Name,
		})
	}
	var buf bytes.Buffer
	if err := writeJSONDiags(&buf, fset, "/repo", diags); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != len(allAnalyzers) {
		t.Fatalf("want %d NDJSON lines, got %d: %q", len(allAnalyzers), len(lines), buf.String())
	}
	for i, line := range lines {
		var got map[string]any
		if err := json.Unmarshal([]byte(line), &got); err != nil {
			t.Fatalf("line %d is not valid JSON: %v", i, err)
		}
		var keys []string
		for k := range got {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		if want := []string{"analyzer", "file", "line", "message"}; strings.Join(keys, ",") != strings.Join(want, ",") {
			t.Errorf("line %d field set = %v, want %v", i, keys, want)
		}
		if got["analyzer"] != allAnalyzers[i].Name {
			t.Errorf("line %d analyzer = %v, want %s", i, got["analyzer"], allAnalyzers[i].Name)
		}
		if got["file"] != "internal/src/gc.go" {
			t.Errorf("line %d file = %v, want repo-relative internal/src/gc.go", i, got["file"])
		}
		if got["line"] != float64(3) {
			t.Errorf("line %d line = %v, want 3", i, got["line"])
		}
	}
}

// listPackageFiles lists one srccache package with export data and returns
// its non-test file list and the export-data table of its dependency
// closure.
func listPackageFiles(t *testing.T, importPath string) (files []string, packageFile map[string]string) {
	t.Helper()
	pkgs, err := goList([]string{importPath})
	if err != nil {
		t.Fatalf("go list: %v", err)
	}
	packageFile = make(map[string]string)
	for _, p := range pkgs {
		if p.Export != "" {
			packageFile[p.ImportPath] = p.Export
		}
		if p.ImportPath == importPath {
			for _, f := range p.GoFiles {
				files = append(files, filepath.Join(p.Dir, f))
			}
		}
	}
	if len(files) == 0 {
		t.Fatalf("%s not found in go list output", importPath)
	}
	return files, packageFile
}

// checkClean runs all five analyzers (including stale-suppression
// detection) over one package and reports every diagnostic as an error.
func checkClean(t *testing.T, importPath string) {
	t.Helper()
	files, packageFile := listPackageFiles(t, importPath)
	fset := token.NewFileSet()
	diags, err := checkPackage(allAnalyzers, fset, exportImporter(fset, nil, packageFile), importPath, "", files, nil, nil)
	if err != nil {
		t.Fatalf("checkPackage: %v", err)
	}
	for _, d := range diags {
		t.Errorf("unexpected diagnostic: %v: [%s] %s", fset.Position(d.Pos), d.Category, d.Message)
	}
}

// TestSrcSelfClean asserts the real internal/src package is clean under
// all five analyzers — the tree-wide self-clean gate in miniature.
func TestSrcSelfClean(t *testing.T) { checkClean(t, "srccache/internal/src") }

// TestEngineSelfClean covers the sharded engine: the shard lock held
// across cache.Submit must pass lockheld (src device time is virtual).
func TestEngineSelfClean(t *testing.T) { checkClean(t, "srccache/internal/engine") }

// TestNetblockSelfClean covers the transport.
func TestNetblockSelfClean(t *testing.T) { checkClean(t, "srccache/internal/netblock") }

// TestStatsSelfClean audits the package newly added to vet coverage; a
// stale //srclint:allow here would fail as a diagnostic.
func TestStatsSelfClean(t *testing.T) { checkClean(t, "srccache/internal/stats") }

// TestClusterSelfClean holds the cluster layer to the determinism contract
// it is in SimPackages under: the ring, detector, journal and virtual
// transport must be vtime-pure (no wall clock, no global rand).
func TestClusterSelfClean(t *testing.T) { checkClean(t, "srccache/internal/cluster") }

// TestSupervisorSelfClean holds the control plane to the same contract:
// its clock is the transport's; Start's ticker is the one allowed site.
func TestSupervisorSelfClean(t *testing.T) {
	checkClean(t, "srccache/internal/cluster/supervisor")
}

// mutatePackage replaces old with new in the named file of a package copy
// (the original tree is untouched) and returns the diagnostics the given
// analyzers report for the mutated package, with stale-allow exemptions
// for the ones not selected.
func mutatePackage(t *testing.T, analyzers []*analysis.Analyzer, importPath, base, oldSrc, newSrc string) ([]analysis.Diagnostic, *token.FileSet) {
	t.Helper()
	files, packageFile := listPackageFiles(t, importPath)
	var target string
	for _, f := range files {
		if filepath.Base(f) == base {
			target = f
		}
	}
	if target == "" {
		t.Fatalf("%s not in %s file list", base, importPath)
	}
	src, err := os.ReadFile(target)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(src), oldSrc) {
		t.Fatalf("%s no longer contains the expected seed site %q; update this test", base, oldSrc)
	}
	mutated := strings.Replace(string(src), oldSrc, newSrc, 1)
	mutatedFile := filepath.Join(t.TempDir(), base)
	if err := os.WriteFile(mutatedFile, []byte(mutated), 0o644); err != nil {
		t.Fatal(err)
	}
	for i, f := range files {
		if f == target {
			files[i] = mutatedFile
		}
	}
	fset := token.NewFileSet()
	staleSkip := staleSkipFor(allAnalyzers, analyzers)
	diags, err := checkPackage(analyzers, fset, exportImporter(fset, nil, packageFile), importPath, "", files, staleSkip, nil)
	if err != nil {
		t.Fatalf("checkPackage on mutated source: %v", err)
	}
	return diags, fset
}

// ofCategory filters diagnostics by analyzer name.
func ofCategory(diags []analysis.Diagnostic, category string) []analysis.Diagnostic {
	var out []analysis.Diagnostic
	for _, d := range diags {
		if d.Category == category {
			out = append(out, d)
		}
	}
	return out
}

// gcDrain is gc's drain on its success return, the flushepoch seed site.
const gcDrain = "_, err := c.drainDirty(at)\n\treturn err"

// TestSeedingRemoval is the sanity check that flushepoch really guards the
// annotated contract sites: deleting the drain call from gc's return path
// must produce a flushepoch finding. The mutation happens on a copy in a
// temp dir; the tree is untouched.
func TestSeedingRemoval(t *testing.T) {
	diags, fset := mutatePackage(t, allAnalyzers, "srccache/internal/src", "gc.go", gcDrain, "return nil")
	flushDiags := ofCategory(diags, "flushepoch")
	if len(flushDiags) != 1 {
		t.Fatalf("want exactly 1 flushepoch diagnostic after removing gc's drain, got %d (all: %v)",
			len(flushDiags), diags)
	}
	posn := fset.Position(flushDiags[0].Pos)
	if filepath.Base(posn.Filename) != "gc.go" {
		t.Errorf("diagnostic at %v, want in gc.go", posn)
	}
	if !strings.Contains(flushDiags[0].Message, "gc") {
		t.Errorf("message does not name the function: %s", flushDiags[0].Message)
	}
}

// TestFleetSelfClean holds the fleet clean under all five analyzers; the TCP
// transport's two clock reads are its only determinism allows.
func TestFleetSelfClean(t *testing.T) { checkClean(t, "srccache/internal/cluster/fleet") }

// TestSelectAnalyzers pins the -checks/-exclude semantics: keep-list,
// drop-list, order preservation, and the unknown-name error naming the
// valid checks.
func TestSelectAnalyzers(t *testing.T) {
	sel, err := SelectAnalyzers(allAnalyzers, "", "")
	if err != nil || len(sel) != len(allAnalyzers) {
		t.Fatalf("no flags: got %d analyzers, err %v; want all %d", len(sel), err, len(allAnalyzers))
	}

	sel, err = SelectAnalyzers(allAnalyzers, "flushepoch,determinism", "")
	if err != nil {
		t.Fatal(err)
	}
	if len(sel) != 2 || sel[0].Name != "determinism" || sel[1].Name != "flushepoch" {
		t.Errorf("-checks=flushepoch,determinism must keep registration order: got %v", names(sel))
	}

	sel, err = SelectAnalyzers(allAnalyzers, "", "flushepoch, lockheld")
	if err != nil {
		t.Fatal(err)
	}
	if len(sel) != len(allAnalyzers)-2 {
		t.Errorf("-exclude dropped %d, want 2", len(allAnalyzers)-len(sel))
	}
	for _, a := range sel {
		if a.Name == "flushepoch" || a.Name == "lockheld" {
			t.Errorf("excluded analyzer %s survived", a.Name)
		}
	}

	sel, err = SelectAnalyzers(allAnalyzers, "lockheld", "lockheld")
	if err != nil || len(sel) != 0 {
		t.Errorf("keep-then-drop of the same name: got %v, err %v; want empty", names(sel), err)
	}

	// Empty list elements (trailing or doubled commas) are tolerated.
	if sel, err := SelectAnalyzers(allAnalyzers, "flushepoch,,determinism,", ""); err != nil || len(sel) != 2 {
		t.Errorf("empty elements must be skipped: got %v, err %v", names(sel), err)
	}

	// Retired names are unknown now, like any misspelling.
	for _, tc := range []struct{ checks, exclude string }{
		{"hotpath", ""}, {"", "wallclock"}, {"", "boundedretry"}, {"flushepochs", ""},
	} {
		if _, err := SelectAnalyzers(allAnalyzers, tc.checks, tc.exclude); err == nil {
			t.Errorf("checks=%q exclude=%q: want unknown-name error", tc.checks, tc.exclude)
		} else if !strings.Contains(err.Error(), "valid checks") || !strings.Contains(err.Error(), "determinism") {
			t.Errorf("error must list the valid checks: %v", err)
		}
	}
}

// TestSelectionFiltersDiagnostics asserts a -checks subset actually
// changes what checkPackage reports: gc's drain removal fires under
// -checks=flushepoch and is silent under -checks=determinism, and the
// NDJSON stream only ever carries selected analyzer names.
func TestSelectionFiltersDiagnostics(t *testing.T) {
	mutate := func(checks string) []analysis.Diagnostic {
		t.Helper()
		selected, err := SelectAnalyzers(allAnalyzers, checks, "")
		if err != nil {
			t.Fatal(err)
		}
		diags, _ := mutatePackage(t, selected, "srccache/internal/src", "gc.go", gcDrain, "return nil")
		return diags
	}

	diags := mutate("flushepoch")
	if len(ofCategory(diags, "flushepoch")) != 1 {
		t.Errorf("-checks=flushepoch must still catch the removed drain: %v", diags)
	}

	var buf bytes.Buffer
	fset := token.NewFileSet()
	f := fset.AddFile("x.go", -1, 100)
	f.SetLines([]int{0})
	for i := range diags {
		diags[i].Pos = f.LineStart(1)
	}
	if err := writeJSONDiags(&buf, fset, ".", diags); err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(strings.TrimSpace(buf.String()), "\n") {
		var got map[string]any
		if err := json.Unmarshal([]byte(line), &got); err != nil {
			t.Fatal(err)
		}
		if got["analyzer"] != "flushepoch" {
			t.Errorf("NDJSON carries unselected analyzer %v", got["analyzer"])
		}
	}

	if diags := mutate("determinism"); len(diags) != 0 {
		t.Errorf("-checks=determinism must not report the flushepoch seed (or stale allows): %v", diags)
	}
}

func names(as []*analysis.Analyzer) []string {
	out := make([]string, len(as))
	for i, a := range as {
		out[i] = a.Name
	}
	return out
}
