package chaos

import (
	"fmt"
	"hash/fnv"
	"os"
	"strconv"
	"testing"
)

// chaosDigest folds the Results of seeds 1–50, in seed order. A change
// that moves any of them re-pins it and says in CHANGES.md which seeds
// moved and why.
const chaosDigest = "ffa6e54fcfe7cdef"

// TestChaos runs the seeded fault schedules. Every seed must complete its
// full schedule with all durability and content invariants intact.
// CHAOS_SEEDS widens the sweep (CI's dedicated chaos job sets it); the
// default keeps the tier-1 run fast. At the default 50 seeds their Results
// must fold to chaosDigest, so schedule drift never passes unnoticed.
func TestChaos(t *testing.T) {
	seeds := int64(50)
	if v := os.Getenv("CHAOS_SEEDS"); v != "" {
		n, err := strconv.ParseInt(v, 10, 64)
		if err != nil || n <= 0 {
			t.Fatalf("bad CHAOS_SEEDS %q", v)
		}
		seeds = n
	}
	results := make([]Result, seeds)
	t.Cleanup(func() {
		if seeds != 50 || t.Failed() {
			return
		}
		h := fnv.New64a()
		for _, res := range results {
			if res == (Result{}) {
				return // a -run filter skipped this seed
			}
			fmt.Fprintf(h, "%+v\n", res)
		}
		if got := fmt.Sprintf("%016x", h.Sum64()); got != chaosDigest {
			t.Errorf("seeds 1–50 fold to digest %s, want %s: a Result moved", got, chaosDigest)
		}
	})
	for seed := int64(1); seed <= seeds; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%02d", seed), func(t *testing.T) {
			t.Parallel()
			res, err := Run(Options{Seed: seed})
			if err != nil {
				t.Fatal(err)
			}
			if res.Writes == 0 || res.Reads == 0 || res.Checks == 0 {
				t.Fatalf("schedule exercised too little: %+v", res)
			}
			results[seed-1] = res
		})
	}
}

// TestChaosDeterministic replays one schedule and requires bit-identical
// results, including the folded final-state signature.
func TestChaosDeterministic(t *testing.T) {
	o := Options{Seed: 7}
	a, err := Run(o)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(o)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatalf("same seed, different runs:\n  %+v\n  %+v", a, b)
	}
}

// TestChaosCoverage checks that, across the seed set, every fault kind
// actually fires — a schedule that never crashes or rebuilds proves nothing.
func TestChaosCoverage(t *testing.T) {
	var total Result
	for seed := int64(1); seed <= 12; seed++ {
		res, err := Run(Options{Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		total.Crashes += res.Crashes
		total.Rebuilds += res.Rebuilds
		total.Scrubs += res.Scrubs
		total.Transients += res.Transients
		total.Unreadables += res.Unreadables
		total.Corruptions += res.Corruptions
		total.Flushes += res.Flushes
	}
	if total.Crashes == 0 || total.Rebuilds == 0 || total.Scrubs == 0 ||
		total.Transients == 0 || total.Unreadables == 0 ||
		total.Corruptions == 0 || total.Flushes == 0 {
		t.Fatalf("fault kinds not all exercised: %+v", total)
	}
}

// TestChaosFoundSeeds pins seeds that once failed. The first five lost an
// acknowledged flush before the free-space edge became one path (gc copies
// a group only when free space can absorb the round), with:
//
//	seed 342 op 644: page 1613 recovered at version 2, below the durable version 3
//	seed 622 op 537: page 928 recovered at version 1, below the durable version 2
//	seed 1462 op 734: page 1663 recovered at version 1, below the durable version 2
//	seed 1744 op 744: page 3306 recovered at version 4, below the durable version 5
//	seed 1773 op 755: page 136 recovered at version 1, below the durable version 2
//
// Whether that change fixed a cause or only moved these schedules is open;
// either way each must keep passing. The last two planted silent
// corruption on a device page that already had a latent error, a pair no
// real sector can hold: the read met the latent error first and refetched
// the page, so nothing counted the corruption. Until the harness stopped
// planting that pair they failed with:
//
//	seed 843 op 79: page 3095: planted corruption not detected
//	seed 1866 op 290: scrub missed a planted corruption
func TestChaosFoundSeeds(t *testing.T) {
	for _, seed := range []int64{342, 622, 1462, 1744, 1773, 843, 1866} {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			t.Parallel()
			if _, err := Run(Options{Seed: seed}); err != nil {
				t.Fatal(err)
			}
		})
	}
}
