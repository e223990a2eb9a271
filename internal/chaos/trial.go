package chaos

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

// trials enumerates and runs crash trials over every kept snapshot, in
// snapshot order, and returns the number run. The first failing trial
// stops the run: its violation is returned with the crash that caused it,
// the schedules shrunk.
func (p *probe) trials() (int, error) {
	total := 0
	for ei := range p.epochs {
		ep := &p.epochs[ei]
		for _, tr := range p.enumerate(ep) {
			total++
			strict := tr.tier == "barrier" && p.cfg.Flush != src.FlushNever
			v, err := verdict(p.trialOnce(ep, tr.scheds, strict, total%3 == 0))
			if err != nil {
				return total, err
			}
			if v == nil {
				continue
			}
			v.epoch, v.op, v.tier = ep.idx, ep.op, tr.tier
			if v.schedules, err = p.shrink(ep, tr.scheds, strict); err != nil {
				return total, err
			}
			return total, v
		}
	}
	return total, nil
}

// verdict splits a check's error into the violation it found, if any, and
// a harness failure otherwise.
func verdict(err error) (*violation, error) {
	var v *violation
	if errors.As(err, &v) {
		return v, nil
	}
	return nil, err
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
func (p *probe) enumerate(ep *epoch) []plannedTrial {
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
func (p *probe) tornTuple(ep *epoch, lens []int) (tuple, bool) {
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

// recoverCrash recovers a fresh cache over the SSDs' crashed contents and
// a clone of prim. A failed Recover is a recovery-succeeds violation.
func (p *probe) recoverCrash(crashed []*blockdev.Content, prim *blockdev.Content) (*src.Cache, *blockdev.Content, error) {
	cfg := p.cfg
	cfg.SSDs = make([]blockdev.Device, len(crashed))
	for i, c := range crashed {
		cfg.SSDs[i] = blockdev.NewMemDeviceWithContent(c, 0)
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
		return nil, nil, breach(recoverySucceeds, "Recover returned an error on a crashed state")
	}
	return cache, pc, nil
}

// recoverTrial recovers from ep's devices crashed by the schedule tuple.
func (p *probe) recoverTrial(ep *epoch, scheds tuple) (*src.Cache, *blockdev.Content, error) {
	crashed := make([]*blockdev.Content, len(ep.ssds))
	for i, c := range ep.ssds {
		crashed[i] = c.Clone()
		if err := crashed[i].CrashPartial(scheds[i]); err != nil {
			return nil, nil, fmt.Errorf("crash of ssd %d: %w", i, err)
		}
	}
	return p.recoverCrash(crashed, ep.prim)
}

// trialOnce runs one crash trial and checks the tier's invariants. It
// returns a *violation (the caller adds the crash), another error for a
// harness failure, or nil if the state checks out. deep additionally runs
// the determinism and generation-monotonicity probes.
func (p *probe) trialOnce(ep *epoch, scheds tuple, strict bool, deep bool) error {
	cache, prim, err := p.recoverTrial(ep, scheds)
	if err != nil {
		return err
	}
	// The determinism probe goes first: the oracle's read-back repairs
	// the cache, and may drop a clean page that does not verify.
	if deep {
		if err := p.determinismProbe(ep, scheds, cache); err != nil {
			return err
		}
	}
	o := oracle{Cache: cache, Primary: prim, Latest: ep.latest, Durable: ep.durable, Span: p.span}
	if err := o.recovered(ep.at, strict, true); err != nil || !deep || !strict {
		return err
	}
	return p.generationProbe(ep, cache)
}

// determinismProbe re-runs the identical crash + recovery and compares the
// recovered version map: recovery must be a pure function of the crashed
// state.
func (p *probe) determinismProbe(ep *epoch, scheds tuple, first *src.Cache) error {
	second, _, err := p.recoverTrial(ep, scheds)
	if err != nil {
		return err
	}
	for lba := int64(0); lba < p.span; lba++ {
		v1, c1 := first.CachedVersion(lba)
		v2, c2 := second.CachedVersion(lba)
		if v1 != v2 || c1 != c2 {
			return breach(deterministicRecovery,
				"page %d recovered as (v%d,%v) then (v%d,%v) from the same state", lba, v1, c1, v2, c2)
		}
	}
	return nil
}

// generationProbe checks generation monotonicity end to end: a write
// acknowledged and flushed after recovery must win over every resurrected
// generation across a second, total crash.
func (p *probe) generationProbe(ep *epoch, cache *src.Cache) error {
	var target int64 = -1
	var prev uint64
	for lba := int64(0); lba < p.span; lba++ {
		if v, ok := cache.CachedVersion(lba); ok && v > 0 {
			target, prev = lba, v
			break
		}
	}
	if target < 0 {
		return nil // nothing recovered to contend with
	}
	if _, err := cache.Submit(ep.at, blockdev.Request{
		Op: blockdev.OpWrite, Off: target * blockdev.PageSize, Len: blockdev.PageSize,
	}); err != nil {
		return fmt.Errorf("generation probe write: %w", err)
	}
	if _, err := cache.Flush(ep.at); err != nil {
		return fmt.Errorf("generation probe flush: %w", err)
	}
	for _, d := range cache.CacheDevices() {
		d.Content().Crash()
	}
	if _, err := cache.Recover(); err != nil {
		return breach(generationMonotonicity, "re-recovery after probe flush errored: %v", err)
	}
	// The flushed version must win: an older generation recovered, or
	// none and primary stale, fails the oracle's durable floor.
	flushed := map[int64]uint64{target: prev + 1}
	o := oracle{Cache: cache, Primary: cache.Primary().Content(), Latest: flushed, Durable: flushed}
	if err := o.page(ep.at, target, true, false); err != nil {
		return breach(generationMonotonicity, "probe write flushed at version %d: %v", prev+1, err)
	}
	return nil
}
