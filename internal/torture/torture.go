// Package torture is the crash-consistency probe for the SRC cache and the
// oracle that judges it. A harness (internal/chaos) drives a seeded
// workload against a live cache and hands the Probe a snapshot of the
// devices' write logs and of its acknowledged-version model at every point
// a crash matters. After the run, Trials replays systematically chosen
// partial-persistence crash schedules (blockdev.CrashSchedule) against the
// snapshots kept: every trial clones a snapshot's device contents, applies
// one schedule per SSD, recovers a fresh cache over the crashed state, and
// judges it with the Oracle against the model.
//
// Schedules come in the two tiers blockdev.CrashSchedule describes: on the
// barrier tier (per-device log prefixes, torn at the cut) the Oracle's
// recovered check is strict; on the reorder tier (subsets, omissions) only
// its detection-grade invariants apply.
//
// A failing trial is re-run through a greedy shrinker that minimizes the
// persisted subset, so a Violation carries the smallest schedule the
// checker still rejects at the earliest kept snapshot. The probe draws
// its schedules from an rng of its own, so probing never shifts the
// harness's schedule, and equal seeds give equal trials and verdicts.
package torture

import (
	"errors"
	"fmt"
	"maps"
	"math/rand"
	"slices"

	"srccache/internal/blockdev"
	"srccache/internal/src"
	"srccache/internal/vtime"
)

// The probe's size: at each kept snapshot it enumerates schedulesPerEpoch
// seeded schedules per tier on top of the structured ones, and it keeps at
// most maxEpochs snapshots — when more occur, every other kept one is
// dropped so the kept set stays spread over the run.
const (
	schedulesPerEpoch = 4
	maxEpochs         = 6
)

// Violation is one invariant failure, reported with the shrunk schedule
// that still reproduces it.
type Violation struct {
	Epoch     int // snapshot index within the run
	Op        int // harness op after which the snapshot was taken
	Tier      string
	Invariant string
	Detail    string
	// Schedules is the shrunk per-SSD crash schedule tuple.
	Schedules []blockdev.CrashSchedule
}

func (v *Violation) Error() string {
	kept := make([]int, len(v.Schedules))
	for i, s := range v.Schedules {
		kept[i] = keptCount(s)
	}
	return fmt.Sprintf("epoch %d (op %d, %s tier): %s: %s; shrunk schedule keeps %v writes",
		v.Epoch, v.Op, v.Tier, v.Invariant, v.Detail, kept)
}

// epoch is one snapshot: Content clones of the SSDs with their volatile
// write logs intact, a clone of the primary's store (which the cache keeps
// committed: primary storage is durable, as in the paper's HDD RAID
// setting), and the model — latest maps a page to its newest acknowledged
// version, durable to the newest one an explicit Flush that completed a
// device barrier covered.
type epoch struct {
	idx, op         int
	at              vtime.Time
	ssds            []*blockdev.Content
	prim            *blockdev.Content
	latest, durable map[int64]uint64
}

// Probe collects one run's snapshots and replays crash schedules against
// them.
type Probe struct {
	cfg    src.Config
	span   int64
	rng    *rand.Rand
	epochs []epoch
	stride int // snapshot retention stride (doubles when maxEpochs overflows)
	seq    int
}

// NewProbe returns a probe whose trial caches have the shape and policies
// of cfg (its SSDs and Primary are replaced per trial) and whose oracle
// judges pages [0, span). Under FlushNever every trial checks only the
// detection-grade invariants: the policy makes no durability promise to be
// strict about. seed seeds the probe's own rng.
func NewProbe(cfg src.Config, span, seed int64) *Probe {
	return &Probe{cfg: cfg, span: span, rng: rand.New(rand.NewSource(seed)), stride: 1}
}

// Snapshot records c's devices and the model after harness op op. The
// kept snapshots are thinned to maxEpochs by doubling the keep stride:
// deterministic, and spread over the whole run rather than clustered at
// its end.
func (p *Probe) Snapshot(op int, at vtime.Time, c *src.Cache, latest, durable map[int64]uint64) {
	idx := p.seq
	p.seq++
	if idx%p.stride != 0 {
		return
	}
	ep := epoch{idx: idx, op: op, at: at, prim: c.Primary().Content().Clone(), latest: maps.Clone(latest), durable: maps.Clone(durable)}
	for _, d := range c.CacheDevices() {
		ep.ssds = append(ep.ssds, d.Content().Clone())
	}
	p.epochs = append(p.epochs, ep)
	if len(p.epochs) > maxEpochs {
		p.stride *= 2
		p.epochs = slices.DeleteFunc(p.epochs, func(e epoch) bool { return e.idx%p.stride != 0 })
	}
}

// LossWindow measures how many pages a total crash of c's SSDs would
// regress below their newest acknowledged version — the exposure the flush
// policy trades against flush traffic: the oracle's strict page check with
// every acknowledged version taken as durable.
func (p *Probe) LossWindow(c *src.Cache, latest map[int64]uint64) (int, error) {
	var ssds []*blockdev.Content
	for _, d := range c.CacheDevices() {
		ssds = append(ssds, d.Content())
	}
	cache, pc, err := p.recoverCrash(ssds, c.Primary().Content(), func(_ int, c *blockdev.Content) (*blockdev.Content, error) { return c.Committed(), nil })
	if err != nil {
		return 0, err
	}
	if cache == nil {
		return 0, errors.New("recovery after a total crash failed")
	}
	o := Oracle{Cache: cache, Primary: pc, Latest: latest, Durable: latest}
	lost := 0
	for lba := int64(0); lba < p.span; lba++ {
		if o.Page(0, lba, true, false) != nil {
			lost++
		}
	}
	return lost, nil
}
