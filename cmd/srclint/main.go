// Command srclint checks the contracts no test can check for this
// repository (DESIGN.md §8):
//
//	determinism  simulation packages use internal/vtime and injected seeded
//	             *rand.Rand values: no host clock, no global math/rand
//	maprange     map iteration order must not reach slices or writers unsorted
//	ioerr        blockdev/raid I/O errors are never discarded, and once
//	             bound are read on every path
//	lockheld     no sync.Mutex/RWMutex held across blockdev/raid/netblock I/O
//	flushepoch   //srclint:contract flush functions drain/flush on every
//	             success path
//
// Each analyzer sees one function, or one package, at a time: there is no
// call graph and nothing crosses a package boundary. ioerr, lockheld and
// flushepoch are path-sensitive over per-function control-flow graphs
// (internal/analysis/cfg).
//
// Run standalone (srclint ./...), with -json for machine-readable NDJSON
// findings on stdout, or as a vet tool:
//
//	go build -o bin/srclint ./cmd/srclint
//	go vet -vettool=$PWD/bin/srclint ./...
//
// Select or drop checks with -checks=<name>,... and -exclude=<name>,...
// (unknown names are errors); -timings prints per-analyzer wall time.
//
// Suppress an individual finding with //srclint:allow <check>[,<check>...]
// [reason] on or directly above the offending line; a directive that
// suppresses nothing is itself reported (staleallow). The only other
// annotation is //srclint:contract flush (DESIGN.md §8).
package main

import (
	"os"

	"srccache/internal/analysis"
	"srccache/internal/analysis/determinism"
	"srccache/internal/analysis/driver"
	"srccache/internal/analysis/flushepoch"
	"srccache/internal/analysis/ioerr"
	"srccache/internal/analysis/lockheld"
	"srccache/internal/analysis/maprange"
)

func main() {
	os.Exit(driver.Main([]*analysis.Analyzer{
		determinism.Analyzer,
		maprange.Analyzer,
		ioerr.Analyzer,
		lockheld.Analyzer,
		flushepoch.Analyzer,
	}))
}
