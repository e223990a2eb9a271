// Command srclint checks this repository's determinism, I/O-error,
// flush-epoch and concurrency contracts (DESIGN.md §8):
//
//	wallclock    simulation packages must use internal/vtime, never the host clock
//	seededrand   randomness comes from injected seeded *rand.Rand values only
//	maprange     map iteration order must not reach slices or writers unsorted
//	ioerr        blockdev/raid I/O errors must never be discarded
//	errpath      an error bound from a blockdev/raid call must be read on every path
//	lockheld     no sync.Mutex/RWMutex held across blockdev/raid/netblock I/O
//	flushepoch   //srclint:contract flush functions drain/flush on every success path
//	chandisc     no send after close, close only from the //srclint:owns owner,
//	             no receive on a self-closed channel
//	staleepoch   cluster-layer calls that can surface netblock.ErrStaleEpoch
//	             must guard with errors.Is and reach a refetch/refresh
//	             handler, or declare //srclint:surfaces staleepoch
//	boundedretry retry/reconnect loops must consult a budget, limit, or
//	             deadline on every back edge
//	hotpath      //srclint:hotpath functions (and everything they call, in
//	             any package) must not heap-allocate composite literals,
//	             call fmt/reflect, iterate maps, or defer in loops; prune
//	             with //srclint:coldpath at a boundary
//
// errpath, lockheld and flushepoch are path-sensitive: they run over
// per-function control-flow graphs (internal/analysis/cfg). chandisc is
// additionally interprocedural: it runs over the package call graph
// (internal/analysis/callgraph — static call, go and defer edges with
// function-value flow and per-function effect summaries). staleepoch,
// boundedretry and hotpath are modular: each package's analysis emits
// serialized fact summaries (internal/analysis/modfacts — exported
// contracts, cross-package call edges, hot-path safety), and the driver
// loads dependency facts so the contracts propagate across package
// boundaries.
//
// Run standalone (srclint ./...), with -json for machine-readable NDJSON
// findings on stdout, or as a vet tool:
//
//	go build -o bin/srclint ./cmd/srclint
//	go vet -vettool=$PWD/bin/srclint ./...
//
// Select or drop checks with -checks=<name>,... and -exclude=<name>,...
// (unknown names are errors).
//
// Suppress an individual finding with //srclint:allow <check>[,<check>...]
// [reason] on or directly above the offending line; a directive that
// suppresses nothing is itself reported (staleallow). The annotation
// grammar for the contracts (//srclint:contract flush, //srclint:owns,
// //srclint:contracterr, //srclint:surfaces, //srclint:handles,
// //srclint:hotpath, //srclint:coldpath) is documented in DESIGN.md §8.
package main

import (
	"os"

	"srccache/internal/analysis"
	"srccache/internal/analysis/boundedretry"
	"srccache/internal/analysis/chandisc"
	"srccache/internal/analysis/driver"
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

func main() {
	os.Exit(driver.Main([]*analysis.Analyzer{
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
	}))
}
