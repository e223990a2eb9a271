package torture

import (
	"errors"
	"fmt"

	"srccache/internal/blockdev"
	"srccache/internal/src"
)

// Tier labels for Violation reporting.
const (
	tierBarrier = "barrier"
	tierReorder = "reorder"
)

// tuple is one crash schedule per SSD, applied simultaneously.
type tuple []blockdev.CrashSchedule

func cloneTuple(t tuple) tuple {
	out := make(tuple, len(t))
	for i, s := range t {
		out[i] = s.Clone()
	}
	return out
}

// trials enumerates and runs crash trials over every retained epoch, in
// epoch order. The first violation (shrunk) is returned along with the
// number of trials executed.
func (r *cellRun) trials() (*Violation, int, error) {
	total := 0
	for ei := range r.epochs {
		ep := &r.epochs[ei]
		for _, tr := range r.enumerate(ep) {
			total++
			viol, err := r.trialOnce(ep, tr.scheds, tr.strict, total%3 == 0)
			if err != nil {
				return nil, total, err
			}
			if viol == nil {
				continue
			}
			viol.Tier = tr.tier
			shrunk, err := r.shrink(ep, tr.scheds, tr.strict)
			if err != nil {
				return nil, total, err
			}
			viol.Schedules = shrunk
			return viol, total, nil
		}
	}
	return nil, total, nil
}

// plannedTrial pairs a schedule tuple with its obligation tier.
type plannedTrial struct {
	scheds tuple
	strict bool
	tier   string
}

// enumerate builds the epoch's trial plan: structured barrier-tier
// schedules (drop-all, keep-all, staggered, seeded prefixes, one torn
// tail), then reorder-tier subsets and single-write omissions. FlushNever
// epochs run every schedule at detection grade only — the policy makes no
// durability promise to be strict about.
func (r *cellRun) enumerate(ep *epoch) []plannedTrial {
	strictOK := r.cell.Flush != src.FlushNever
	lens := make([]int, numSSD)
	for i, c := range ep.ssds {
		lens[i] = c.WriteLogLen()
	}
	var plan []plannedTrial
	addBarrier := func(t tuple) {
		plan = append(plan, plannedTrial{scheds: t, strict: strictOK, tier: tierBarrier})
	}
	addReorder := func(t tuple) {
		plan = append(plan, plannedTrial{scheds: t, strict: false, tier: tierReorder})
	}

	all := func(mk func(i int) blockdev.CrashSchedule) tuple {
		t := make(tuple, numSSD)
		for i := range t {
			t[i] = mk(i)
		}
		return t
	}
	// The two boundary schedules: a classic drop-everything crash and a
	// crash that lost nothing (power cut after the caches drained).
	addBarrier(all(func(i int) blockdev.CrashSchedule { return blockdev.DropAllSchedule(lens[i]) }))
	addBarrier(all(func(i int) blockdev.CrashSchedule { return blockdev.KeepAllSchedule(lens[i]) }))
	// Staggered: one column's cache drained fully, the rest lost all —
	// the worst skew a set of independent FIFO caches can produce.
	for _, keep := range []int{0, numSSD - 1} {
		keep := keep
		addBarrier(all(func(i int) blockdev.CrashSchedule {
			if i == keep {
				return blockdev.KeepAllSchedule(lens[i])
			}
			return blockdev.DropAllSchedule(lens[i])
		}))
	}
	// K seeded per-device prefix tuples.
	for k := 0; k < schedulesPerEpoch; k++ {
		addBarrier(all(func(i int) blockdev.CrashSchedule {
			return blockdev.PrefixSchedule(lens[i], r.rng.Intn(lens[i]+1))
		}))
	}
	// One torn-tail tuple: a prefix cut whose last persisted write is a
	// blob, truncated mid-blob — the torn summary parseSummary's CRC must
	// reject. Reused pages are preferred: tearing over an old committed
	// blob splices stale bytes onto a fresh header, the nastiest input.
	if t, ok := r.tornTuple(ep, lens); ok {
		addBarrier(t)
	}
	// Reorder tier: seeded subsets at two densities, then single-write
	// omissions at seeded positions.
	for k := 0; k < schedulesPerEpoch; k++ {
		p := 0.5 + 0.3*float64(k%2)
		addReorder(all(func(i int) blockdev.CrashSchedule {
			return blockdev.SubsetSchedule(lens[i], r.rng, p)
		}))
	}
	for k := 0; k < schedulesPerEpoch/2+1; k++ {
		t := all(func(i int) blockdev.CrashSchedule { return blockdev.KeepAllSchedule(lens[i]) })
		d := r.rng.Intn(numSSD)
		if lens[d] > 0 {
			t[d] = blockdev.OmitOneSchedule(lens[d], r.rng.Intn(lens[d]))
		}
		addReorder(t)
	}
	return plan
}

// tornTuple builds a barrier-tier tuple tearing one device's log at a blob
// write: that device persists a prefix ending in a truncated blob, the
// others persist seeded prefixes of their own.
func (r *cellRun) tornTuple(ep *epoch, lens []int) (tuple, bool) {
	// Prefer a blob written over an old committed blob (page reuse).
	bestDev, bestIdx, bestLen := -1, -1, 0
	reuse := false
	for d, c := range ep.ssds {
		committed := c.Clone()
		committed.Crash()
		for i, rec := range c.WriteLog() {
			if rec.Kind != blockdev.WriteBlobKind || rec.Len < 2 {
				continue
			}
			old, err := committed.ReadBlob(rec.Page)
			hasOld := err == nil && old != nil
			if bestDev < 0 || (hasOld && !reuse) {
				bestDev, bestIdx, bestLen, reuse = d, i, rec.Len, hasOld
			}
		}
	}
	if bestDev < 0 {
		return nil, false
	}
	t := make(tuple, numSSD)
	for i := range t {
		if i == bestDev {
			t[i] = blockdev.PrefixSchedule(lens[i], bestIdx+1).
				Tear(bestIdx, 1+r.rng.Intn(bestLen-1))
			continue
		}
		t[i] = blockdev.PrefixSchedule(lens[i], r.rng.Intn(lens[i]+1))
	}
	return t, true
}

// recoverTrial clones the epoch's device state, applies the schedule tuple
// and recovers a fresh cache over the crashed contents.
func (r *cellRun) recoverTrial(ep *epoch, scheds tuple) (*src.Cache, *blockdev.MemDevice, error) {
	devs := make([]blockdev.Device, numSSD)
	for i := range devs {
		cc := ep.ssds[i].Clone()
		if err := cc.CrashPartial(scheds[i]); err != nil {
			return nil, nil, fmt.Errorf("schedule for ssd %d: %w", i, err)
		}
		devs[i] = blockdev.NewMemDeviceWithContent(cc, 0)
	}
	prim := blockdev.NewMemDeviceWithContent(ep.prim.Clone(), 0)
	cache, err := r.newCache(devs, prim)
	if err != nil {
		return nil, nil, fmt.Errorf("assembling trial cache: %w", err)
	}
	if _, err := cache.Recover(); err != nil {
		// Recovery must degrade by discarding, never by failing: any
		// crash state a schedule can produce is a state a real power
		// failure can produce.
		return nil, nil, nil
	}
	return cache, prim, nil
}

// trialOnce runs one crash trial and checks the tier's invariants. It
// returns a Violation (without Tier/Schedules, the caller fills those), or
// nil if the state checks out. deep additionally runs the determinism and
// generation-monotonicity probes.
func (r *cellRun) trialOnce(ep *epoch, scheds tuple, strict bool, deep bool) (*Violation, error) {
	cache, prim, err := r.recoverTrial(ep, scheds)
	if err != nil {
		return nil, err
	}
	if cache == nil {
		return r.violation(ep, "recovery-succeeds", "Recover returned an error on a crashed state"), nil
	}
	o := Oracle{Cache: cache, Primary: prim.Content(), Latest: ep.latest, Durable: ep.durable, Span: span}
	var b *Breach
	switch err := o.Recovered(ep.at, strict, true); {
	case errors.As(err, &b):
		return r.violation(ep, b.Invariant, b.Detail), nil
	case err != nil:
		return nil, err
	}
	if deep {
		if v, err := r.determinismProbe(ep, scheds, cache); err != nil || v != nil {
			return v, err
		}
		if strict {
			if v, err := r.generationProbe(ep, scheds, cache); err != nil || v != nil {
				return v, err
			}
		}
	}
	return nil, nil
}

// violation reports a broken invariant at ep; the caller fills Tier and
// Schedules.
func (r *cellRun) violation(ep *epoch, inv, detail string) *Violation {
	return &Violation{Cell: r.cell, Seed: r.opts.Seed, Epoch: ep.idx, Op: ep.op, Invariant: inv, Detail: detail}
}

// determinismProbe re-runs the identical crash + recovery and compares the
// recovered version map: recovery must be a pure function of the crashed
// state.
func (r *cellRun) determinismProbe(ep *epoch, scheds tuple, first *src.Cache) (*Violation, error) {
	second, _, err := r.recoverTrial(ep, scheds)
	if err != nil {
		return nil, err
	}
	if second == nil {
		return r.violation(ep, "deterministic-recovery", "second recovery of the identical crashed state errored"), nil
	}
	for lba := int64(0); lba < span; lba++ {
		v1, c1 := first.CachedVersion(lba)
		v2, c2 := second.CachedVersion(lba)
		if v1 != v2 || c1 != c2 {
			return r.violation(ep, "deterministic-recovery", fmt.Sprintf(
				"page %d recovered as (v%d,%v) then (v%d,%v) from the same state", lba, v1, c1, v2, c2)), nil
		}
	}
	return nil, nil
}

// generationProbe checks generation monotonicity end to end: a write
// acknowledged and flushed after recovery must win over every resurrected
// generation across a second, total crash.
func (r *cellRun) generationProbe(ep *epoch, scheds tuple, cache *src.Cache) (*Violation, error) {
	const inv = "generation-monotonicity"
	var probe int64 = -1
	var prev uint64
	for lba := int64(0); lba < span; lba++ {
		if v, ok := cache.CachedVersion(lba); ok && v > 0 {
			probe, prev = lba, v
			break
		}
	}
	if probe < 0 {
		return nil, nil // nothing recovered to contend with
	}
	if _, err := cache.Submit(ep.at, blockdev.Request{
		Op: blockdev.OpWrite, Off: probe * blockdev.PageSize, Len: blockdev.PageSize,
	}); err != nil {
		return nil, fmt.Errorf("generation probe write: %w", err)
	}
	if _, err := cache.Flush(ep.at); err != nil {
		return nil, fmt.Errorf("generation probe flush: %w", err)
	}
	for _, d := range cache.CacheDevices() {
		d.Content().Crash()
	}
	if _, err := cache.Recover(); err != nil {
		return r.violation(ep, inv, fmt.Sprintf("re-recovery after probe flush errored: %v", err)), nil
	}
	// The flushed version must win: an older generation recovered, or
	// none and primary stale, fails the oracle's durable floor.
	flushed := map[int64]uint64{probe: prev + 1}
	o := Oracle{Cache: cache, Primary: cache.Primary().Content(), Latest: flushed, Durable: flushed}
	if err := o.Page(ep.at, probe, true, false); err != nil {
		return r.violation(ep, inv, fmt.Sprintf("probe write flushed at version %d: %v", prev+1, err)), nil
	}
	return nil, nil
}
