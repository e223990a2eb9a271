package blockdev

import (
	"fmt"
	"maps"
	"math/rand"
	"slices"
)

// CrashSchedule selects which entries of a Content write log persist across
// a crash. Keep[i] persists log entry i; Torn optionally truncates a kept
// blob entry to its first k bytes (merged over the committed page tail).
//
// Schedules come in two tiers, and recovery invariants differ between them:
//
//   - Barrier tier (PrefixSchedule, optionally torn at the cut): each device
//     persists a FIFO prefix of its write log, modelling a drive that honors
//     internal write ordering but loses its volatile tail on power failure.
//     Under this tier the MS/ME summary sandwich is a sound completeness
//     proof and the strict durability invariants must hold.
//
//   - Reorder tier (SubsetSchedule, OmitOneSchedule): arbitrary subsets, the
//     weakest hardware model (no ordering between cached writes at all). No
//     metadata-only recovery scan can guarantee strict durability here; the
//     checkable contract weakens to detection — recovery must still succeed
//     deterministically and never silently serve wrong bytes.
type CrashSchedule struct {
	Keep []bool
	Torn map[int]int
}

func (s CrashSchedule) validate(n int) error {
	if len(s.Keep) != n {
		return fmt.Errorf("%w: schedule covers %d writes, log has %d", ErrBadRequest, len(s.Keep), n)
	}
	for i := range s.Torn {
		if i < 0 || i >= n {
			return fmt.Errorf("%w: torn write %d outside log of %d", ErrBadRequest, i, n)
		}
		if !s.Keep[i] {
			return fmt.Errorf("%w: torn write %d not kept", ErrBadRequest, i)
		}
	}
	return nil
}

// Clone returns an independent copy of the schedule.
func (s CrashSchedule) Clone() CrashSchedule {
	return CrashSchedule{Keep: slices.Clone(s.Keep), Torn: maps.Clone(s.Torn)}
}

// PrefixSchedule persists the first cut entries of an n-entry log: cut 0
// is the Crash() special case, cut n a crash right after a completed
// flush.
func PrefixSchedule(n, cut int) CrashSchedule {
	s := CrashSchedule{Keep: make([]bool, n)}
	for i := 0; i < cut && i < n; i++ {
		s.Keep[i] = true
	}
	return s
}

// SubsetSchedule persists each of n entries independently with probability
// pKeep, drawn from rng.
func SubsetSchedule(n int, rng *rand.Rand, pKeep float64) CrashSchedule {
	s := CrashSchedule{Keep: make([]bool, n)}
	for i := range s.Keep {
		s.Keep[i] = rng.Float64() < pKeep
	}
	return s
}

// OmitOneSchedule persists everything except entry i.
func OmitOneSchedule(n, i int) CrashSchedule {
	s := PrefixSchedule(n, n)
	if i >= 0 && i < n {
		s.Keep[i] = false
	}
	return s
}

// Tear marks kept blob entry i as persisted only through byte k-1. It
// returns the schedule for chaining.
func (s CrashSchedule) Tear(i, k int) CrashSchedule {
	if s.Torn == nil {
		s.Torn = make(map[int]int)
	}
	s.Torn[i] = k
	return s
}
