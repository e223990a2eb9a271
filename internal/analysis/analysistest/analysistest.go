// Package analysistest checks srclint's analyzers against fixture packages
// with the lint gate itself: driver.Check lists, type-checks and lints each
// fixture exactly as it does the tree, every registered analyzer and the
// stale-directive audit included, and every finding is matched against the
// fixture's // want comments.
//
// Fixtures live under <testdata>/src, and each directory there is a module
// of its own whose go.mod says `module <dir>`: the fixture import path
// "a/internal/src" is the directory testdata/src/a/internal/src of module
// a. The go command lists and compiles them, so tests need the go tool on
// PATH but no network.
//
// An expectation is a trailing comment of the form
//
//	//\x20want "regexp" `another`
//
// on the line where a finding must be reported. Every finding, staleallow
// included, must be matched by exactly one expectation and vice versa.
package analysistest

import (
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"srccache/internal/analysis/driver"
)

// TestData returns the calling test package's testdata directory.
func TestData() string {
	wd, err := os.Getwd()
	if err != nil {
		panic(err)
	}
	return filepath.Join(wd, "testdata")
}

// Run lints each fixture package (named by import path under
// testdata/src) with driver.Check and reports mismatches between its
// findings and its // want expectations through t.
func Run(t *testing.T, testdata string, pkgPaths ...string) {
	t.Helper()
	for _, path := range pkgPaths {
		module, _, _ := strings.Cut(path, "/")
		findings, err := driver.Check(filepath.Join(testdata, "src", module), path)
		if err != nil {
			t.Fatalf("checking fixture %q: %v", path, err)
		}
		wants, err := collectWants(filepath.Join(testdata, "src", filepath.FromSlash(path)))
		if err != nil {
			t.Fatal(err)
		}
		match(t, findings, wants)
	}
}

type expectation struct {
	file string
	line int
	re   *regexp.Regexp
	used bool
}

// match pairs each finding with one unused expectation on its line whose
// pattern matches the message. Files are compared by base name: one
// package's findings and expectations all come from one directory.
func match(t *testing.T, findings []driver.Finding, wants []*expectation) {
	t.Helper()
	for _, f := range findings {
		matched := false
		for _, w := range wants {
			if w.used || filepath.Base(w.file) != filepath.Base(f.Pos.Filename) || w.line != f.Pos.Line {
				continue
			}
			if w.re.MatchString(f.Message) {
				w.used = true
				matched = true
				break
			}
		}
		if !matched {
			t.Errorf("unexpected finding: %v", f)
		}
	}
	for _, w := range wants {
		if !w.used {
			t.Errorf("%s:%d: expected a finding matching %q, got none", w.file, w.line, w.re)
		}
	}
}

var wantTokenRe = regexp.MustCompile("\"(?:[^\"\\\\]|\\\\.)*\"|`[^`]*`")

// collectWants reads the // want expectations of the Go files in dir.
func collectWants(dir string) ([]*expectation, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var out []*expectation
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		file := filepath.Join(dir, e.Name())
		src, err := os.ReadFile(file)
		if err != nil {
			return nil, err
		}
		for i, text := range strings.Split(string(src), "\n") {
			_, rest, ok := strings.Cut(text, "// want ")
			if !ok {
				continue
			}
			for _, tok := range wantTokenRe.FindAllString(rest, -1) {
				pat, err := strconv.Unquote(tok)
				if err != nil {
					return nil, fmt.Errorf("%s:%d: bad want token %s: %v", file, i+1, tok, err)
				}
				re, err := regexp.Compile(pat)
				if err != nil {
					return nil, fmt.Errorf("%s:%d: bad want regexp %q: %v", file, i+1, pat, err)
				}
				out = append(out, &expectation{file: file, line: i + 1, re: re})
			}
		}
	}
	return out, nil
}
