package main

import (
	"encoding/binary"
	"fmt"

	"srccache/internal/blockdev"
	"srccache/internal/workload"
)

// kind selects the stack a workload drives.
type kind int

const (
	// served is the stack netblockd -shards 2 builds: client → TCP → server
	// → engine → src.Cache.
	served kind = iota
	// replicated is three flat nodes behind fleet.ChainBackend, R = 3.
	replicated
	// direct is a bare src.Cache.Submit loop: no sockets, no hand-off.
	direct
)

// spec is one workload. Sizes are bytes. The op counts are fixed per
// (workload, seconds) so both sides of a later comparison do identical
// work; seconds only scales the timed count.
type spec struct {
	name string
	kind kind
	// volume is what the stack exports; span (≤ volume) is the part the
	// timed ops address. Each client owns span/clients of it.
	volume, span int64
	reqBytes     int64
	readFraction float64
	zipf         bool
	// clients is how many closed-loop initiators drive the stack, each with
	// its own connection and its own share of the span. Every workload runs
	// one: a trial has one CPU (pin.go), on which a second client only
	// queues behind the first — the same throughput at twice the latency.
	clients int
	warmOps int // per trial, all clients together
	// timedPerSec is the timed op count per second of a trial's measuring
	// budget (seconds ÷ trials), all clients together. It is a constant
	// chosen so that a trial measures for about that long at the speed of
	// the commit that introduced the benchmark; it is not adapted at run
	// time.
	timedPerSec int
}

const (
	mib       = int64(1) << 20
	fillChunk = 256 << 10 // one fill write; a divisor of every stripe and range
	// window is how many ops one latency sample of the direct workload
	// covers (a Submit is too short to time alone). About one op in 18 000
	// sets off a cache GC burst of several milliseconds; at 4096 a fifth of
	// the windows hold one, so p95 sits inside the GC mode. At 1024 it sat
	// on the knee between the modes and read 0.9 or 7 µs by chance.
	window = 4096
)

// specs lists the workloads in the order -aa runs them.
var specs = []spec{
	{name: "hot-read-4k", kind: served, volume: 512 * mib, span: 32 * mib, reqBytes: 4096,
		readFraction: 1, clients: 1, warmOps: 90_000, timedPerSec: 54_000},
	{name: "churn-rw-64k", kind: served, volume: 512 * mib, span: 512 * mib, reqBytes: 64 << 10,
		readFraction: 0.3, clients: 1, warmOps: 34_000, timedPerSec: 18_000},
	{name: "fleet-r3-rw-4k", kind: replicated, volume: 64 * mib, span: 64 * mib, reqBytes: 4096,
		readFraction: 0.7, clients: 1, warmOps: 75_000, timedPerSec: 35_000},
	{name: "cache-direct-zipf-4k", kind: direct, volume: 256 * mib, span: 256 * mib, reqBytes: 4096,
		readFraction: 0.7, zipf: true, clients: 1, warmOps: 2_000_000, timedPerSec: 1_450_000},
}

func findSpec(name string) (spec, error) {
	for _, s := range specs {
		if s.name == name {
			return s, nil
		}
	}
	return spec{}, fmt.Errorf("unknown workload %q", name)
}

// timedOps is the timed op count of one trial, rounded down to a whole
// number of windows per client so the direct workload's samples are all
// full.
func (s spec) timedOps(seconds int) int {
	n := s.timedPerSec * seconds / trials
	per := window * s.clients
	if n < per {
		return per
	}
	return n / per * per
}

// warmSeed generates every trial's warm-up stream, whatever -seed is. The
// cache has hysteresis: on the Zipf workload the first million requests
// after the fill settle it into one of several regimes (read hit ratio
// 0.70, 0.71, 0.72 or 0.74, median Submit 0.1 to 0.5 µs) that then persists
// under any later stream. A warm-up that changed with the seed would make
// runs at different seeds measure different regimes, not the same code.
// Set-up is therefore identical on every run and only the timed requests
// follow -seed.
const warmSeed = -1

// stream pregenerates client c's requests: n of them from
// internal/workload over the client's own share of the span, kept as the
// blockdev.Request values the generator yields so the timed loop decodes
// nothing. It is a pure function of (workload, seed, client, n) — the
// program under test sees only the requests.
func (s spec) stream(seed int64, c, n int) ([]blockdev.Request, error) {
	share := s.span / int64(s.clients)
	cfg := workload.Config{
		Pattern:      workload.UniformRandom,
		Span:         share,
		Offset:       int64(c) * share,
		RequestBytes: s.reqBytes,
		ReadFraction: s.readFraction,
		Seed:         streamSeed(s.name, seed, c),
	}
	if s.zipf {
		cfg.Pattern = workload.Zipf
		cfg.Theta = 0.99
	}
	g, err := workload.NewGenerator(cfg)
	if err != nil {
		return nil, err
	}
	reqs := make([]blockdev.Request, n)
	for i := range reqs {
		reqs[i], _ = g.Next()
	}
	return reqs, nil
}

// streamSeed mixes the workload name, the run seed and the client index
// into one generator seed, so no two streams of a run share a sequence.
func streamSeed(name string, seed int64, c int) int64 {
	h := uint64(seed)*0x9e3779b97f4a7c15 + uint64(c)
	for i := 0; i < len(name); i++ {
		h = (h ^ uint64(name[i])) * 0x100000001b3
	}
	return int64(mix64(h) >> 1)
}

func mix64(x uint64) uint64 {
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	x ^= x >> 33
	return x
}

// The verification pattern: every 4 KiB page holds 512 big-endian words
// w, w+k, w+2k, … with w a hash of (page number, version). A page read
// back at the wrong offset, at a stale version, shifted, or with any byte
// changed fails the check.
const patternStep = 0x9e3779b97f4a7c15

func pageWord(page int64, version uint32) uint64 {
	return mix64(uint64(page)<<24 ^ uint64(version) ^ 0x5352435f50415454)
}

// fillPattern writes the pattern for version into buf, which starts at
// byte offset off; both are page multiples.
func fillPattern(buf []byte, off int64, version uint32) {
	for p := 0; p < len(buf); p += int(blockdev.PageSize) {
		w := pageWord((off+int64(p))/blockdev.PageSize, version)
		page := buf[p : p+int(blockdev.PageSize)]
		for i := 0; i < len(page); i += 8 {
			binary.BigEndian.PutUint64(page[i:], w)
			w += patternStep
		}
	}
}

// checkPattern reports whether buf holds exactly fillPattern(off, version).
func checkPattern(buf []byte, off int64, version uint32) bool {
	for p := 0; p < len(buf); p += int(blockdev.PageSize) {
		w := pageWord((off+int64(p))/blockdev.PageSize, version)
		page := buf[p : p+int(blockdev.PageSize)]
		for i := 0; i < len(page); i += 8 {
			if binary.BigEndian.Uint64(page[i:]) != w {
				return false
			}
			w += patternStep
		}
	}
	return true
}
