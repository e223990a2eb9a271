package chaos

import (
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

// violation is a broken invariant. A probe trial adds where it crashed:
// the snapshot, the harness op it followed, the schedule tier, and the
// shrunk per-SSD schedules that still break it.
type violation struct {
	invariant, detail string
	epoch, op         int
	tier              string // "" outside a probe trial
	schedules         tuple
}

func (v *violation) Error() string {
	if v.tier == "" {
		return v.invariant + ": " + v.detail
	}
	kept := make([]int, len(v.schedules))
	for i, s := range v.schedules {
		kept[i] = keptCount(s)
	}
	return fmt.Sprintf("epoch %d (op %d, %s tier): %s: %s; shrunk schedule keeps %v writes",
		v.epoch, v.op, v.tier, v.invariant, v.detail, kept)
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

// probe is a crash-matrix cell's crash-consistency probe. The harness hands
// it a snapshot of the devices' write logs and of its model at every point
// a crash matters. After the run, trials replays systematically chosen
// partial-persistence crash schedules (blockdev.CrashSchedule) against the
// snapshots kept: every trial clones a snapshot's device contents, applies
// one schedule per SSD, recovers a fresh cache over the crashed state, and
// judges it with the oracle against the model.
//
// Schedules come in the two tiers blockdev.CrashSchedule describes: on the
// barrier tier (per-device log prefixes, torn at the cut) the oracle's
// recovered check is strict; on the reorder tier (subsets, omissions) only
// its detection-grade invariants apply. A failing trial is shrunk to the
// smallest persisted subset that still fails at that snapshot. The probe
// draws its schedules from an rng of its own, so probing never shifts the
// harness's schedule, and equal seeds give equal trials and verdicts.
type probe struct {
	cfg    src.Config
	span   int64
	rng    *rand.Rand
	epochs []epoch
	stride int // snapshot retention stride (doubles when maxEpochs overflows)
	seq    int
}

// newProbe returns a probe whose trial caches have the shape and policies
// of cfg (its SSDs and Primary are replaced per trial) and whose oracle
// judges pages [0, span). Under FlushNever every trial checks only the
// detection-grade invariants: the policy makes no durability promise to be
// strict about. seed seeds the probe's own rng.
func newProbe(cfg src.Config, span, seed int64) *probe {
	return &probe{cfg: cfg, span: span, rng: rand.New(rand.NewSource(seed)), stride: 1}
}

// snapshot records c's devices and the model after harness op op. The
// kept snapshots are thinned to maxEpochs by doubling the keep stride:
// deterministic, and spread over the whole run rather than clustered at
// its end.
func (p *probe) snapshot(op int, at vtime.Time, c *src.Cache, latest, durable map[int64]uint64) {
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

// lossWindow measures how many pages a total crash of c's SSDs would
// regress below their newest acknowledged version — the exposure the flush
// policy trades against flush traffic: the oracle's strict page check with
// every acknowledged version taken as durable.
func (p *probe) lossWindow(c *src.Cache, latest map[int64]uint64) (int, error) {
	var crashed []*blockdev.Content
	for _, d := range c.CacheDevices() {
		crashed = append(crashed, d.Content().Committed())
	}
	cache, pc, err := p.recoverCrash(crashed, c.Primary().Content())
	if err != nil {
		return 0, err
	}
	o := oracle{Cache: cache, Primary: pc, Latest: latest, Durable: latest}
	lost := 0
	for lba := int64(0); lba < p.span; lba++ {
		if o.page(0, lba, true, false) != nil {
			lost++
		}
	}
	return lost, nil
}
