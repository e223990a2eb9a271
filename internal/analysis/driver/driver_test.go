package driver

import (
	"bytes"
	"encoding/json"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"srccache/internal/analysis"
	"srccache/internal/analysis/boundedretry"
	"srccache/internal/analysis/chandisc"
	"srccache/internal/analysis/errpath"
	"srccache/internal/analysis/flushepoch"
	"srccache/internal/analysis/hotpath"
	"srccache/internal/analysis/ioerr"
	"srccache/internal/analysis/lockheld"
	"srccache/internal/analysis/maprange"
	"srccache/internal/analysis/seededrand"
	"srccache/internal/analysis/staleepoch"
	"srccache/internal/analysis/wallclock"
)

// allAnalyzers mirrors cmd/srclint's registration list: all eleven
// checks.
var allAnalyzers = []*analysis.Analyzer{
	wallclock.Analyzer,
	seededrand.Analyzer,
	maprange.Analyzer,
	ioerr.Analyzer,
	errpath.Analyzer,
	lockheld.Analyzer,
	flushepoch.Analyzer,
	chandisc.Analyzer,
	staleepoch.Analyzer,
	boundedretry.Analyzer,
	hotpath.Analyzer,
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
// its non-test file list, the export-data table of the dependency closure,
// and the full listing (for dependency-facts resolution).
func listPackageFiles(t *testing.T, importPath string) (files []string, packageFile map[string]string, pkgs []*listPackage) {
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
	return files, packageFile, pkgs
}

// depFactsOver builds the standalone-mode dependency-facts resolver for a
// listing.
func depFactsOver(fset *token.FileSet, imp types.Importer, pkgs []*listPackage) func(string) *analysis.PackageFacts {
	byPath := make(map[string]*listPackage)
	for _, p := range pkgs {
		if byPath[p.ImportPath] == nil {
			byPath[p.ImportPath] = p
		}
	}
	fl := &factsLoader{fset: fset, imp: imp, byPath: byPath, cache: make(map[string]*analysis.PackageFacts)}
	return fl.facts
}

// checkClean runs all eleven analyzers (including stale-suppression
// detection) over one package and reports every diagnostic as an error.
func checkClean(t *testing.T, importPath string) {
	t.Helper()
	files, packageFile, pkgs := listPackageFiles(t, importPath)
	fset := token.NewFileSet()
	imp := exportImporter(fset, nil, packageFile)
	diags, _, err := checkPackage(allAnalyzers, fset, imp, importPath, "", files, depFactsOver(fset, imp, pkgs), nil, nil)
	if err != nil {
		t.Fatalf("checkPackage: %v", err)
	}
	for _, d := range diags {
		t.Errorf("unexpected diagnostic: %v: [%s] %s", fset.Position(d.Pos), d.Category, d.Message)
	}
}

// TestSrcSelfClean asserts the real internal/src package is clean under
// all eleven analyzers — the tree-wide self-clean gate in miniature.
func TestSrcSelfClean(t *testing.T) { checkClean(t, "srccache/internal/src") }

// TestEngineSelfClean covers the sharded engine: its //srclint:hotpath
// root (Engine.Do) and the shard lock held across cache.Submit must verify.
func TestEngineSelfClean(t *testing.T) { checkClean(t, "srccache/internal/engine") }

// TestNetblockSelfClean covers the shutdown-channel ownership annotations.
func TestNetblockSelfClean(t *testing.T) { checkClean(t, "srccache/internal/netblock") }

// TestStatsSelfClean audits the package newly added to vet coverage; a
// stale //srclint:allow here would fail as a diagnostic.
func TestStatsSelfClean(t *testing.T) { checkClean(t, "srccache/internal/stats") }

// TestClusterSelfClean holds the replicated-fleet layer to the determinism
// contract it was added to SimPackages under: the ring, nodes, detector,
// and churn harness must be vtime-pure (no wall clock, no global rand).
func TestClusterSelfClean(t *testing.T) { checkClean(t, "srccache/internal/cluster") }

// TestSupervisorSelfClean holds the autonomous control plane to the
// routing-protocol and retry contracts it joined ClusterPackages under:
// its repair retry loops must consult their attempt budget on every back
// edge (boundedretry), and every call that can surface a stale-epoch
// error must reach a handler (staleepoch). The wallclock daemon is
// deliberately NOT in SimPackages — it owns real timers and latencies.
func TestSupervisorSelfClean(t *testing.T) {
	checkClean(t, "srccache/internal/cluster/supervisor")
}

// mutatePackage replaces old with new in the named file of a package copy
// (the original tree is untouched) and returns the all-analyzer
// diagnostics for the mutated package.
func mutatePackage(t *testing.T, importPath, base, oldSrc, newSrc string) ([]analysis.Diagnostic, *token.FileSet) {
	t.Helper()
	files, packageFile, pkgs := listPackageFiles(t, importPath)
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
	imp := exportImporter(fset, nil, packageFile)
	diags, _, err := checkPackage(allAnalyzers, fset, imp, importPath, "", files, depFactsOver(fset, imp, pkgs), nil, nil)
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

// TestSeedingRemoval is the sanity check that flushepoch really guards the
// annotated contract sites: deleting the drain call from gc's return path
// must produce a flushepoch finding. The mutation happens on a copy in a
// temp dir; the tree is untouched.
func TestSeedingRemoval(t *testing.T) {
	diags, fset := mutatePackage(t, "srccache/internal/src", "gc.go",
		"_, err := c.drainDirty(at)\n\treturn err", "return nil")
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

// TestFleetSelfClean holds the TCP fleet — the package the staleepoch
// contract was built around — clean under all eleven analyzers,
// including the handles-annotation rot verification.
func TestFleetSelfClean(t *testing.T) { checkClean(t, "srccache/internal/cluster/fleet") }

// TestStaleEpochSeedingRemoval rots the fleet's stale-epoch handler on a
// copy: tryOwners keeps its //srclint:handles annotation and its errors.Is
// guard but loses the refetch call, so the handles verification must
// report exactly that declaration, once. This is the acceptance check that
// the netblock contract is demonstrably enforced against a violating
// caller — rule 3 trusts the annotation only because this verification
// exists.
func TestStaleEpochSeedingRemoval(t *testing.T) {
	diags, fset := mutatePackage(t, "srccache/internal/cluster/fleet", "fleet.go",
		"if stale && f.refetchRing() {\n\t\t\tf.refetches.Add(1)\n\t\t\tcontinue\n\t\t}",
		"if stale {\n\t\t\tcontinue\n\t\t}")
	staleDiags := ofCategory(diags, "staleepoch")
	if len(staleDiags) != 1 {
		t.Fatalf("want exactly 1 staleepoch diagnostic after removing tryOwners' refetch, got %d (all: %v)",
			len(staleDiags), diags)
	}
	posn := fset.Position(staleDiags[0].Pos)
	if filepath.Base(posn.Filename) != "fleet.go" {
		t.Errorf("diagnostic at %v, want in fleet.go", posn)
	}
	if !strings.Contains(staleDiags[0].Message, "tryOwners") || !strings.Contains(staleDiags[0].Message, "rotted") {
		t.Errorf("message does not name the rotted handler: %s", staleDiags[0].Message)
	}
}

// TestBoundedRetrySeedingRemoval strips the documented sanction from
// netblock's accept loop on a copy: the loop's success back edge (Accept
// returned a connection) consults no budget by design and is allowed by
// annotation, so deleting the //srclint:allow must make boundedretry
// report exactly that loop, once. This also proves the allow is load-
// bearing rather than rotted.
func TestBoundedRetrySeedingRemoval(t *testing.T) {
	diags, fset := mutatePackage(t, "srccache/internal/netblock", "server.go",
		"\t//srclint:allow boundedretry accept loop lives as long as the server\n", "")
	retryDiags := ofCategory(diags, "boundedretry")
	if len(retryDiags) != 1 {
		t.Fatalf("want exactly 1 boundedretry diagnostic after removing the accept-loop allow, got %d (all: %v)",
			len(retryDiags), diags)
	}
	posn := fset.Position(retryDiags[0].Pos)
	if filepath.Base(posn.Filename) != "server.go" {
		t.Errorf("diagnostic at %v, want in server.go", posn)
	}
	if !strings.Contains(retryDiags[0].Message, "Accept") {
		t.Errorf("message does not name the accept call: %s", retryDiags[0].Message)
	}
}

// TestHotpathSeedingRemoval re-introduces the allocation the hot-path
// sweep originally caught on a copy of internal/src: the segment write
// column list built through a `[]int{}` composite literal inside the
// //srclint:hotpath write path. hotpath must report exactly that literal,
// once.
func TestHotpathSeedingRemoval(t *testing.T) {
	diags, fset := mutatePackage(t, "srccache/internal/src", "segment.go",
		"wc := make([]int, 0, len(cols)+1)\n\t\twc = append(wc, cols...)\n\t\twriteCols = append(wc, parity)",
		"writeCols = append(append([]int{}, cols...), parity)")
	hotDiags := ofCategory(diags, "hotpath")
	if len(hotDiags) != 1 {
		t.Fatalf("want exactly 1 hotpath diagnostic after re-introducing the slice literal, got %d (all: %v)",
			len(hotDiags), diags)
	}
	posn := fset.Position(hotDiags[0].Pos)
	if filepath.Base(posn.Filename) != "segment.go" {
		t.Errorf("diagnostic at %v, want in segment.go", posn)
	}
	if !strings.Contains(hotDiags[0].Message, "slice composite literal") {
		t.Errorf("message does not name the allocation: %s", hotDiags[0].Message)
	}
}

// TestFactsDeterminism pins the modular-facts serialization: analyzing the
// same package with its files in reversed order and its dependency
// listing shuffled must produce byte-identical encoded facts. The CI facts
// cache and the vetx files both depend on this.
func TestFactsDeterminism(t *testing.T) {
	const importPath = "srccache/internal/cluster/fleet"
	files, packageFile, pkgs := listPackageFiles(t, importPath)

	encode := func(files []string, pkgs []*listPackage) []byte {
		t.Helper()
		fset := token.NewFileSet()
		imp := exportImporter(fset, nil, packageFile)
		_, facts, err := checkPackage(allAnalyzers, fset, imp, importPath, "", files, depFactsOver(fset, imp, pkgs), nil, nil)
		if err != nil {
			t.Fatalf("checkPackage: %v", err)
		}
		data, err := facts.Encode()
		if err != nil {
			t.Fatalf("Encode: %v", err)
		}
		return data
	}

	base := encode(files, pkgs)
	if len(base) == 0 || base[len(base)-1] != '\n' {
		t.Fatalf("encoded facts must be non-empty and newline-terminated, got %d bytes", len(base))
	}

	revFiles := make([]string, len(files))
	for i, f := range files {
		revFiles[len(files)-1-i] = f
	}
	revPkgs := make([]*listPackage, len(pkgs))
	for i, p := range pkgs {
		revPkgs[len(pkgs)-1-i] = p
	}
	if got := encode(revFiles, revPkgs); !bytes.Equal(base, got) {
		t.Errorf("facts differ under reversed file and package order:\nbase: %s\ngot:  %s", base, got)
	}

	if decoded, err := analysis.DecodeFacts(base); err != nil || decoded == nil {
		t.Fatalf("DecodeFacts round trip failed: %v", err)
	} else if redo, err := decoded.Encode(); err != nil || !bytes.Equal(base, redo) {
		t.Errorf("Encode(Decode(x)) != x: %v", err)
	}
}

// TestSelectAnalyzers pins the -checks/-exclude semantics: keep-list,
// drop-list, order preservation, and the unknown-name error naming the
// valid checks.
func TestSelectAnalyzers(t *testing.T) {
	sel, err := SelectAnalyzers(allAnalyzers, "", "")
	if err != nil || len(sel) != len(allAnalyzers) {
		t.Fatalf("no flags: got %d analyzers, err %v; want all %d", len(sel), err, len(allAnalyzers))
	}

	sel, err = SelectAnalyzers(allAnalyzers, "hotpath,wallclock", "")
	if err != nil {
		t.Fatal(err)
	}
	if len(sel) != 2 || sel[0].Name != "wallclock" || sel[1].Name != "hotpath" {
		t.Errorf("-checks=hotpath,wallclock must keep registration order: got %v", names(sel))
	}

	sel, err = SelectAnalyzers(allAnalyzers, "", "hotpath, boundedretry")
	if err != nil {
		t.Fatal(err)
	}
	if len(sel) != len(allAnalyzers)-2 {
		t.Errorf("-exclude dropped %d, want 2", len(allAnalyzers)-len(sel))
	}
	for _, a := range sel {
		if a.Name == "hotpath" || a.Name == "boundedretry" {
			t.Errorf("excluded analyzer %s survived", a.Name)
		}
	}

	sel, err = SelectAnalyzers(allAnalyzers, "staleepoch", "staleepoch")
	if err != nil || len(sel) != 0 {
		t.Errorf("keep-then-drop of the same name: got %v, err %v; want empty", names(sel), err)
	}

	// Empty list elements (trailing or doubled commas) are tolerated.
	if sel, err := SelectAnalyzers(allAnalyzers, "hotpath,,wallclock,", ""); err != nil || len(sel) != 2 {
		t.Errorf("empty elements must be skipped: got %v, err %v", names(sel), err)
	}

	for _, tc := range []struct{ checks, exclude string }{
		{"hotpaths", ""}, {"", "nosuch"},
	} {
		if _, err := SelectAnalyzers(allAnalyzers, tc.checks, tc.exclude); err == nil {
			t.Errorf("checks=%q exclude=%q: want unknown-name error", tc.checks, tc.exclude)
		} else if !strings.Contains(err.Error(), "valid checks") || !strings.Contains(err.Error(), "wallclock") {
			t.Errorf("error must list the valid checks: %v", err)
		}
	}
}

// TestSelectionFiltersDiagnostics asserts a -checks subset actually
// changes what checkPackage reports: the hotpath seeding mutation fires
// under -checks=hotpath and is silent under -checks=wallclock, and the
// NDJSON stream only ever carries selected analyzer names.
func TestSelectionFiltersDiagnostics(t *testing.T) {
	mutate := func(selected []*analysis.Analyzer) []analysis.Diagnostic {
		t.Helper()
		const importPath = "srccache/internal/src"
		files, packageFile, pkgs := listPackageFiles(t, importPath)
		var target string
		for _, f := range files {
			if filepath.Base(f) == "segment.go" {
				target = f
			}
		}
		src, err := os.ReadFile(target)
		if err != nil {
			t.Fatal(err)
		}
		mutated := strings.Replace(string(src),
			"wc := make([]int, 0, len(cols)+1)\n\t\twc = append(wc, cols...)\n\t\twriteCols = append(wc, parity)",
			"writeCols = append(append([]int{}, cols...), parity)", 1)
		if mutated == string(src) {
			t.Fatal("seed site missing from segment.go; update this test")
		}
		mutatedFile := filepath.Join(t.TempDir(), "segment.go")
		if err := os.WriteFile(mutatedFile, []byte(mutated), 0o644); err != nil {
			t.Fatal(err)
		}
		for i, f := range files {
			if f == target {
				files[i] = mutatedFile
			}
		}
		fset := token.NewFileSet()
		imp := exportImporter(fset, nil, packageFile)
		staleSkip := staleSkipFor(allAnalyzers, selected)
		diags, _, err := checkPackage(selected, fset, imp, importPath, "", files, depFactsOver(fset, imp, pkgs), staleSkip, nil)
		if err != nil {
			t.Fatal(err)
		}
		return diags
	}

	on, err := SelectAnalyzers(allAnalyzers, "hotpath", "")
	if err != nil {
		t.Fatal(err)
	}
	diags := mutate(on)
	if len(ofCategory(diags, "hotpath")) != 1 {
		t.Errorf("-checks=hotpath must still catch the seeded allocation: %v", diags)
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
		if got["analyzer"] != "hotpath" {
			t.Errorf("NDJSON carries unselected analyzer %v", got["analyzer"])
		}
	}

	off, err := SelectAnalyzers(allAnalyzers, "wallclock", "")
	if err != nil {
		t.Fatal(err)
	}
	if diags := mutate(off); len(diags) != 0 {
		t.Errorf("-checks=wallclock must not report the hotpath seed (or stale allows): %v", diags)
	}
}

func names(as []*analysis.Analyzer) []string {
	out := make([]string, len(as))
	for i, a := range as {
		out[i] = a.Name
	}
	return out
}
