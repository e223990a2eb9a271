package chaos

import "srccache/internal/blockdev"

// shrink minimizes a failing schedule tuple while it still provokes any
// violation at the same snapshot and tier. Three passes, all deterministic:
// torn writes are first simplified to plain drops, then halves of each
// device's kept set are dropped ddmin-style, then single kept writes are
// dropped greedily to a fixed point. The result is the smallest persisted
// subset the checker still rejects — the debugging artifact a violation
// reports.
func (p *probe) shrink(ep *epoch, scheds tuple, strict bool) (tuple, error) {
	fails := func(t tuple) (bool, error) {
		v, err := verdict(p.trialOnce(ep, t, strict, false))
		return v != nil, err
	}
	cur := cloneTuple(scheds)

	// Pass 1: a torn write that can become a plain drop is noise.
	for d := range cur {
		for idx := range cur[d].Torn {
			try := cloneTuple(cur)
			try[d].Keep[idx] = false
			delete(try[d].Torn, idx)
			if bad, err := fails(try); err != nil {
				return cur, err
			} else if bad {
				cur = try
			}
		}
	}

	// Pass 2: drop contiguous halves of each device's kept set while the
	// failure survives — cheap large-step reduction before the greedy pass.
	for d := range cur {
		for size := keptCount(cur[d]); size >= 2; size = keptCount(cur[d]) {
			reduced := false
			for half := 0; half < 2; half++ {
				try := cloneTuple(cur)
				dropKeptRange(&try[d], half*(size/2), size/2+half*(size%2))
				if bad, err := fails(try); err != nil {
					return cur, err
				} else if bad {
					cur = try
					reduced = true
					break
				}
			}
			if !reduced {
				break
			}
		}
	}

	// Pass 3: greedy single-write drops to a fixed point, bounded.
	for round := 0; round < 6; round++ {
		changed := false
		for d := range cur {
			for i := range cur[d].Keep {
				if !cur[d].Keep[i] {
					continue
				}
				try := cloneTuple(cur)
				try[d].Keep[i] = false
				delete(try[d].Torn, i)
				if bad, err := fails(try); err != nil {
					return cur, err
				} else if bad {
					cur = try
					changed = true
				}
			}
		}
		if !changed {
			break
		}
	}
	return cur, nil
}

func keptCount(s blockdev.CrashSchedule) int {
	n := 0
	for _, k := range s.Keep {
		if k {
			n++
		}
	}
	return n
}

// dropKeptRange clears kept entries [from, from+n) counted over the kept
// subsequence only.
func dropKeptRange(s *blockdev.CrashSchedule, from, n int) {
	seen := 0
	for i, k := range s.Keep {
		if !k {
			continue
		}
		if seen >= from && seen < from+n {
			s.Keep[i] = false
			delete(s.Torn, i)
		}
		seen++
	}
}
