package torture

import (
	"errors"
	"fmt"

	"srccache/internal/blockdev"
	"srccache/internal/src"
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

// Trials enumerates and runs crash trials over every kept snapshot, in
// snapshot order, and returns the number run. The first failing trial
// stops the run: it is shrunk and returned as a *Violation.
func (p *Probe) Trials() (int, error) {
	total := 0
	for ei := range p.epochs {
		ep := &p.epochs[ei]
		for _, tr := range p.enumerate(ep) {
			total++
			strict := tr.tier == "barrier" && p.cfg.Flush != src.FlushNever
			viol, err := p.trialOnce(ep, tr.scheds, strict, total%3 == 0)
			if err != nil {
				return total, err
			}
			if viol == nil {
				continue
			}
			viol.Tier = tr.tier
			if viol.Schedules, err = p.shrink(ep, tr.scheds, strict); err != nil {
				return total, err
			}
			return total, viol
		}
	}
	return total, nil
}

// plannedTrial pairs a schedule tuple with its tier, "barrier" or
// "reorder".
type plannedTrial struct {
	scheds tuple
	tier   string
}

// enumerate builds the epoch's trial plan: structured barrier-tier
// schedules (drop-all, keep-all, staggered, seeded prefixes, one torn
// tail), then reorder-tier subsets and single-write omissions. FlushNever
// epochs run every schedule at detection grade only — the policy makes no
// durability promise to be strict about.
func (p *Probe) enumerate(ep *epoch) []plannedTrial {
	n := len(ep.ssds)
	lens := make([]int, n)
	for i, c := range ep.ssds {
		lens[i] = c.WriteLogLen()
	}
	var plan []plannedTrial
	addBarrier := func(t tuple) { plan = append(plan, plannedTrial{t, "barrier"}) }
	addReorder := func(t tuple) { plan = append(plan, plannedTrial{t, "reorder"}) }

	all := func(mk func(i int) blockdev.CrashSchedule) tuple {
		t := make(tuple, n)
		for i := range t {
			t[i] = mk(i)
		}
		return t
	}
	// The two boundary schedules: a classic drop-everything crash and a
	// crash that lost nothing (power cut after the caches drained).
	addBarrier(all(func(i int) blockdev.CrashSchedule { return blockdev.PrefixSchedule(lens[i], 0) }))
	addBarrier(all(func(i int) blockdev.CrashSchedule { return blockdev.PrefixSchedule(lens[i], lens[i]) }))
	// Staggered: one column's cache drained fully, the rest lost all —
	// the worst skew a set of independent FIFO caches can produce.
	for _, keep := range []int{0, n - 1} {
		addBarrier(all(func(i int) blockdev.CrashSchedule {
			if i == keep {
				return blockdev.PrefixSchedule(lens[i], lens[i])
			}
			return blockdev.PrefixSchedule(lens[i], 0)
		}))
	}
	// K seeded per-device prefix tuples.
	for k := 0; k < schedulesPerEpoch; k++ {
		addBarrier(all(func(i int) blockdev.CrashSchedule {
			return blockdev.PrefixSchedule(lens[i], p.rng.Intn(lens[i]+1))
		}))
	}
	// One torn-tail tuple: a prefix cut whose last persisted write is a
	// blob, truncated mid-blob — the torn summary parseSummary's CRC must
	// reject. Reused pages are preferred: tearing over an old committed
	// blob splices stale bytes onto a fresh header, the nastiest input.
	if t, ok := p.tornTuple(ep, lens); ok {
		addBarrier(t)
	}
	// Reorder tier: seeded subsets at two densities, then single-write
	// omissions at seeded positions.
	for k := 0; k < schedulesPerEpoch; k++ {
		density := 0.5 + 0.3*float64(k%2)
		addReorder(all(func(i int) blockdev.CrashSchedule {
			return blockdev.SubsetSchedule(lens[i], p.rng, density)
		}))
	}
	for k := 0; k < schedulesPerEpoch/2+1; k++ {
		t := all(func(i int) blockdev.CrashSchedule { return blockdev.PrefixSchedule(lens[i], lens[i]) })
		d := p.rng.Intn(n)
		if lens[d] > 0 {
			t[d] = blockdev.OmitOneSchedule(lens[d], p.rng.Intn(lens[d]))
		}
		addReorder(t)
	}
	return plan
}

// tornTuple builds a barrier-tier tuple tearing one device's log at a blob
// write: that device persists a prefix ending in a truncated blob, the
// others persist seeded prefixes of their own.
func (p *Probe) tornTuple(ep *epoch, lens []int) (tuple, bool) {
	// Prefer a blob written over an old committed blob (page reuse).
	bestDev, bestIdx, bestLen, reuse := -1, -1, 0, false
	for d, c := range ep.ssds {
		committed := c.Committed()
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
	t := make(tuple, len(ep.ssds))
	for i := range t {
		if i == bestDev {
			t[i] = blockdev.PrefixSchedule(lens[i], bestIdx+1).
				Tear(bestIdx, 1+p.rng.Intn(bestLen-1))
			continue
		}
		t[i] = blockdev.PrefixSchedule(lens[i], p.rng.Intn(lens[i]+1))
	}
	return t, true
}

// recoverCrash builds each SSD's crashed copy with crashed, clones prim and
// recovers a fresh cache over them. The cache is nil when Recover fails.
func (p *Probe) recoverCrash(ssds []*blockdev.Content, prim *blockdev.Content, crashed func(d int, c *blockdev.Content) (*blockdev.Content, error)) (*src.Cache, *blockdev.Content, error) {
	cfg := p.cfg
	cfg.SSDs = make([]blockdev.Device, len(ssds))
	for i, c := range ssds {
		cc, err := crashed(i, c)
		if err != nil {
			return nil, nil, fmt.Errorf("crash of ssd %d: %w", i, err)
		}
		cfg.SSDs[i] = blockdev.NewMemDeviceWithContent(cc, 0)
	}
	pc := prim.Clone()
	cfg.Primary = blockdev.NewMemDeviceWithContent(pc, 0)
	cache, err := src.New(cfg)
	if err != nil {
		return nil, nil, fmt.Errorf("assembling trial cache: %w", err)
	}
	if _, err := cache.Recover(); err != nil {
		// Recovery must degrade by discarding, never by failing: any
		// crash state a schedule can produce is a state a real power
		// failure can produce.
		return nil, pc, nil
	}
	return cache, pc, nil
}

// recoverTrial recovers from ep's devices crashed by the schedule tuple.
func (p *Probe) recoverTrial(ep *epoch, scheds tuple) (*src.Cache, *blockdev.Content, error) {
	return p.recoverCrash(ep.ssds, ep.prim, func(d int, c *blockdev.Content) (*blockdev.Content, error) {
		cc := c.Clone()
		return cc, cc.CrashPartial(scheds[d])
	})
}

// trialOnce runs one crash trial and checks the tier's invariants. It
// returns a Violation (without Tier/Schedules, the caller fills those), or
// nil if the state checks out. deep additionally runs the determinism and
// generation-monotonicity probes.
func (p *Probe) trialOnce(ep *epoch, scheds tuple, strict bool, deep bool) (*Violation, error) {
	cache, prim, err := p.recoverTrial(ep, scheds)
	if err != nil {
		return nil, err
	}
	if cache == nil {
		return p.violation(ep, "recovery-succeeds", "Recover returned an error on a crashed state"), nil
	}
	// The determinism probe goes first: the oracle's read-back repairs
	// the cache, and may drop a clean page that does not verify.
	if deep {
		if v, err := p.determinismProbe(ep, scheds, cache); err != nil || v != nil {
			return v, err
		}
	}
	o := Oracle{Cache: cache, Primary: prim, Latest: ep.latest, Durable: ep.durable, Span: p.span}
	var b *Breach
	switch err := o.Recovered(ep.at, strict, true); {
	case errors.As(err, &b):
		return p.violation(ep, b.Invariant, b.Detail), nil
	case err != nil:
		return nil, err
	}
	if deep && strict {
		return p.generationProbe(ep, scheds, cache)
	}
	return nil, nil
}

// violation reports a broken invariant at ep; the caller fills Tier and
// Schedules.
func (p *Probe) violation(ep *epoch, inv, detail string) *Violation {
	return &Violation{Epoch: ep.idx, Op: ep.op, Invariant: inv, Detail: detail}
}

// determinismProbe re-runs the identical crash + recovery and compares the
// recovered version map: recovery must be a pure function of the crashed
// state.
func (p *Probe) determinismProbe(ep *epoch, scheds tuple, first *src.Cache) (*Violation, error) {
	second, _, err := p.recoverTrial(ep, scheds)
	if err != nil {
		return nil, err
	}
	if second == nil {
		return p.violation(ep, "deterministic-recovery", "second recovery of the identical crashed state errored"), nil
	}
	for lba := int64(0); lba < p.span; lba++ {
		v1, c1 := first.CachedVersion(lba)
		v2, c2 := second.CachedVersion(lba)
		if v1 != v2 || c1 != c2 {
			return p.violation(ep, "deterministic-recovery", fmt.Sprintf(
				"page %d recovered as (v%d,%v) then (v%d,%v) from the same state", lba, v1, c1, v2, c2)), nil
		}
	}
	return nil, nil
}

// generationProbe checks generation monotonicity end to end: a write
// acknowledged and flushed after recovery must win over every resurrected
// generation across a second, total crash.
func (p *Probe) generationProbe(ep *epoch, scheds tuple, cache *src.Cache) (*Violation, error) {
	const inv = "generation-monotonicity"
	var probe int64 = -1
	var prev uint64
	for lba := int64(0); lba < p.span; lba++ {
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
		return p.violation(ep, inv, fmt.Sprintf("re-recovery after probe flush errored: %v", err)), nil
	}
	// The flushed version must win: an older generation recovered, or
	// none and primary stale, fails the oracle's durable floor.
	flushed := map[int64]uint64{probe: prev + 1}
	o := Oracle{Cache: cache, Primary: cache.Primary().Content(), Latest: flushed, Durable: flushed}
	if err := o.Page(ep.at, probe, true, false); err != nil {
		return p.violation(ep, inv, fmt.Sprintf("probe write flushed at version %d: %v", prev+1, err)), nil
	}
	return nil, nil
}
