package driver

import (
	"go/token"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"srccache/internal/analysis"
)

// TestTreeClean is the lint gate: every package of the module, test files
// included, is clean under all four analyzers, and no //srclint:allow is
// stale.
func TestTreeClean(t *testing.T) { checkClean(t, "srccache/...") }

// checkClean fails t with every finding Check reports for pattern.
func checkClean(t *testing.T, pattern string) {
	t.Helper()
	findings, err := Check("", pattern)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range findings {
		t.Error(f)
	}
}

// The per-package gates below are TestTreeClean in miniature: a finding in
// one of these packages also fails under the package's own name.

// TestSrcSelfClean covers the cache core, test files included.
func TestSrcSelfClean(t *testing.T) { checkClean(t, "srccache/internal/src") }

// TestEngineSelfClean covers the sharded engine: the shard lock held
// across cache.Submit must pass lockheld (src device time is virtual).
func TestEngineSelfClean(t *testing.T) { checkClean(t, "srccache/internal/engine") }

// TestNetblockSelfClean covers the transport.
func TestNetblockSelfClean(t *testing.T) { checkClean(t, "srccache/internal/netblock") }

// TestStatsSelfClean covers the stats package; a stale //srclint:allow here
// would fail as a diagnostic.
func TestStatsSelfClean(t *testing.T) { checkClean(t, "srccache/internal/stats") }

// TestClusterSelfClean holds the cluster layer to the determinism contract:
// the ring, detector, journal and virtual transport must be vtime-pure (no
// wall clock, no global rand).
func TestClusterSelfClean(t *testing.T) { checkClean(t, "srccache/internal/cluster") }

// TestSupervisorSelfClean holds the control plane to the same contract:
// its clock is the transport's; Start's ticker is the one allowed site.
func TestSupervisorSelfClean(t *testing.T) {
	checkClean(t, "srccache/internal/cluster/supervisor")
}

// TestFleetSelfClean holds the fleet clean under all four analyzers; the TCP
// transport's two clock reads are its only determinism allows.
func TestFleetSelfClean(t *testing.T) { checkClean(t, "srccache/internal/cluster/fleet") }

// checkUnit lists one package the way Check does, lets edit rewrite its
// file list (the tree itself is never touched), and returns the
// diagnostics all four analyzers report for it.
func checkUnit(t *testing.T, importPath string, edit func(files []string) []string) ([]analysis.Diagnostic, *token.FileSet) {
	t.Helper()
	units, exports, err := list("", []string{importPath})
	if err != nil {
		t.Fatal(err)
	}
	for _, u := range units {
		if u.path != importPath && u.path != importPath+" ["+importPath+".test]" {
			continue
		}
		fset := token.NewFileSet()
		diags, err := checkPackage(fset, exportImporter(fset, u.importMap, exports), u.path, edit(u.files))
		if err != nil {
			t.Fatalf("checkPackage %s: %v", u.path, err)
		}
		return diags, fset
	}
	t.Fatalf("%s not among the listed units", importPath)
	return nil, nil
}

// writeTemp writes src to name in a fresh temp dir and returns its path.
func writeTemp(t *testing.T, name, src string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), name)
	if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestTreeCleanReadsTestFiles plants one violation in a test file of each
// of two packages and requires exactly one finding, in that file, from the
// unit the gate checks: test files are held to the same contracts as the
// code they test.
func TestTreeCleanReadsTestFiles(t *testing.T) {
	for _, tc := range []struct {
		importPath, check, plant string
	}{
		{"srccache/internal/src", "ioerr", `package src

import "srccache/internal/blockdev"

func plantedDiscard(dev *blockdev.MemDevice) {
	dev.Submit(0, blockdev.Request{Op: blockdev.OpWrite, Len: blockdev.PageSize})
}
`},
		{"srccache/internal/chaos", "determinism", `package chaos

import "time"

func plantedClock() time.Time { return time.Now() }
`},
	} {
		t.Run(tc.check, func(t *testing.T) {
			diags, fset := checkUnit(t, tc.importPath, func(files []string) []string {
				tests := 0
				for _, f := range files {
					if strings.HasSuffix(f, "_test.go") {
						tests++
					}
				}
				if tests == 0 {
					t.Fatalf("%s unit holds no test files: %v", tc.importPath, files)
				}
				return append(files, writeTemp(t, "plant_test.go", tc.plant))
			})
			if len(diags) != 1 {
				t.Fatalf("want exactly 1 finding from the plant, got %d: %v", len(diags), diags)
			}
			posn := fset.Position(diags[0].Pos)
			if diags[0].Category != tc.check || filepath.Base(posn.Filename) != "plant_test.go" {
				t.Errorf("finding %v: [%s] %s, want %s in plant_test.go", posn, diags[0].Category, diags[0].Message, tc.check)
			}
		})
	}
}
