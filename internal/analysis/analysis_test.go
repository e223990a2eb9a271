package analysis

import (
	"go/ast"
	"go/parser"
	"go/token"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

func TestNormalizePkgPath(t *testing.T) {
	tests := []struct{ in, want string }{
		{"srccache/internal/src", "srccache/internal/src"},
		{"srccache/internal/src [srccache/internal/src.test]", "srccache/internal/src"},
		{"srccache/internal/src.test", "srccache/internal/src"},
		{"srccache/internal/src_test [srccache/internal/src.test]", "srccache/internal/src"},
		{"a/tools", "a/tools"},
	}
	for _, tt := range tests {
		if got := NormalizePkgPath(tt.in); got != tt.want {
			t.Errorf("NormalizePkgPath(%q) = %q, want %q", tt.in, got, tt.want)
		}
	}
}

func TestPathMatches(t *testing.T) {
	targets := []string{"internal/src", "internal/raid"}
	tests := []struct {
		path string
		want bool
	}{
		{"srccache/internal/src", true},
		{"internal/src", true},
		{"fixture/internal/src", true},
		{"srccache/internal/src [srccache/internal/src.test]", true},
		{"srccache/internal/srcs", false},
		{"srccache/internal/flash", false},
		{"badinternal/src", false}, // suffix must start at a path boundary
	}
	for _, tt := range tests {
		if got := PathMatches(tt.path, targets); got != tt.want {
			t.Errorf("PathMatches(%q) = %v, want %v", tt.path, got, tt.want)
		}
	}
}

// parseDirs parses src as one file and returns its directives plus a
// position lookup by line.
func parseDirs(t *testing.T, src string) (*Directives, *token.FileSet) {
	t.Helper()
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "dir.go", src, parser.ParseComments)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	return ParseDirectives(fset, []*ast.File{f}), fset
}

func TestDirectiveSameLineAndLineAbove(t *testing.T) {
	d, _ := parseDirs(t, `package p

//srclint:allow wallclock above-line reason
var a = 1
var b = 2 //srclint:allow seededrand same-line reason
`)
	// Line-above directive covers line 4; same-line directive covers line 5.
	if !d.Covers("wallclock", token.Position{Filename: "dir.go", Line: 4}) {
		t.Error("directive on the line above did not cover the next line")
	}
	if !d.Covers("seededrand", token.Position{Filename: "dir.go", Line: 5}) {
		t.Error("trailing same-line directive did not cover its own line")
	}
	// A directive never covers two lines below, or a different file.
	if d.Covers("wallclock", token.Position{Filename: "dir.go", Line: 5}) {
		t.Error("directive leaked two lines down")
	}
	if d.Covers("seededrand", token.Position{Filename: "other.go", Line: 5}) {
		t.Error("directive leaked into another file")
	}
	if stale := d.Stale(); len(stale) != 0 {
		t.Errorf("both directives were used, got stale: %v", stale)
	}
}

func TestDirectiveCommaSeparatedNames(t *testing.T) {
	d, _ := parseDirs(t, `package p

var a = 1 //srclint:allow wallclock,seededrand,maprange progress timing only
`)
	posn := token.Position{Filename: "dir.go", Line: 3}
	for _, name := range []string{"wallclock", "seededrand"} {
		if !d.Covers(name, posn) {
			t.Errorf("comma-separated directive does not cover %q", name)
		}
	}
	// maprange was named but never fires: it alone must be reported stale.
	stale := d.Stale()
	if len(stale) != 1 || !strings.Contains(stale[0].Message, "maprange") {
		t.Errorf("want exactly the unused maprange entry stale, got %v", stale)
	}
}

func TestDirectiveUnknownAnalyzerIsStale(t *testing.T) {
	d, _ := parseDirs(t, `package p

var a = 1 //srclint:allow nosuchcheck misremembered name
`)
	// Nothing ever reports under "nosuchcheck", so the entry is stale —
	// the rot the stale-suppression rule exists to catch.
	stale := d.Stale()
	if len(stale) != 1 {
		t.Fatalf("want 1 stale entry, got %v", stale)
	}
	if !strings.Contains(stale[0].Message, "nosuchcheck") {
		t.Errorf("stale message does not name the directive: %s", stale[0].Message)
	}
	if stale[0].Category != "staleallow" {
		t.Errorf("stale category = %q, want staleallow", stale[0].Category)
	}
}

func TestDirectiveReasonTextCannotNameChecks(t *testing.T) {
	// Names stop at the first token that is not a lower-case identifier;
	// everything after is reason text even if it matches a check name.
	d, _ := parseDirs(t, `package p

var a = 1 //srclint:allow wallclock B ioerr
`)
	posn := token.Position{Filename: "dir.go", Line: 3}
	if !d.Covers("wallclock", posn) {
		t.Error("first name not parsed")
	}
	if d.Covers("ioerr", posn) {
		t.Error("check name inside reason text was honored")
	}
}

// TestContractPackagesExist requires every SimPackages and IOErrPackages
// suffix to name a package of this module, so a renamed or deleted package
// cannot leave an entry that silently matches nothing.
func TestContractPackagesExist(t *testing.T) {
	root := filepath.Join("..", "..")
	for _, pkg := range slices.Concat(SimPackages, IOErrPackages) {
		files, err := filepath.Glob(filepath.Join(root, filepath.FromSlash(pkg), "*.go"))
		if err != nil {
			t.Fatal(err)
		}
		if !slices.ContainsFunc(files, func(f string) bool { return !strings.HasSuffix(f, "_test.go") }) {
			t.Errorf("contract entry %q names no package of the module", pkg)
		}
	}
}
