package src

import (
	"math/rand"
	"testing"

	"srccache/internal/blockdev"
)

// Tests for the future-work extensions (paper §6): cost-benefit victim
// selection, hot/cold separation of S2S copies, and array re-striping.

func TestCostBenefitVictimSelection(t *testing.T) {
	e := newEnv(t, func(c *Config) { c.Victim = CostBenefit })
	rng := rand.New(rand.NewSource(21))
	span := int64(8000)
	for i := 0; i < 20000; i++ {
		e.write(rng.Int63n(span), 1)
	}
	e.checkInvariants()
	if e.cache.Counters().GCCopyBytes == 0 && e.cache.Counters().DestageBytes == 0 {
		t.Fatal("GC never ran under cost-benefit selection")
	}
}

func TestCostBenefitScoring(t *testing.T) {
	e := newEnv(t, nil)
	c := e.cache
	// Two synthetic groups: an old, mostly-empty group must outscore a
	// young, mostly-full one.
	c.seqCtr = 100
	c.groups[1].seq = 1
	c.groups[1].paycap = 100
	c.groups[1].valid = 10
	c.groups[2].seq = 99
	c.groups[2].paycap = 100
	c.groups[2].valid = 90
	if !(c.costBenefit(1) > c.costBenefit(2)) {
		t.Fatalf("cost-benefit scores %v vs %v", c.costBenefit(1), c.costBenefit(2))
	}
	// A group with no written segments scores zero.
	if c.costBenefit(3) != 0 {
		t.Fatal("empty group score nonzero")
	}
}

func TestVictimPolicyStringIncludesCostBenefit(t *testing.T) {
	if CostBenefit.String() != "Cost-Benefit" {
		t.Fatal("name wrong")
	}
}

func TestSeparateGCBufferSegregates(t *testing.T) {
	e := newEnv(t, func(c *Config) { c.SeparateGCBuffer = true })
	if e.cache.gcBuf == nil {
		t.Fatal("gc buffer not created")
	}
	rng := rand.New(rand.NewSource(22))
	span := int64(8000)
	for i := 0; i < 20000; i++ {
		e.write(rng.Int63n(span), 1)
	}
	// GC drains its buffers before returning, so stateBufGC is never
	// observable between operations; the segment counter proves the S2S
	// copies were segregated into their own segments.
	if e.cache.counters.GCSegments == 0 {
		t.Fatal("S2S copies never used the separate buffer")
	}
	e.checkInvariants()
	// Reads of GC-buffered pages are RAM hits; rewrites promote them back
	// to the host dirty buffer.
	var gcLBA int64 = -1
	for lba, en := range mapped(e.cache) {
		if en.state == stateBufGC {
			gcLBA = lba
			break
		}
	}
	if gcLBA >= 0 {
		if lat := e.read(gcLBA, 1); lat != 0 {
			t.Fatalf("gc-buffered read latency %v", lat)
		}
		e.write(gcLBA, 1)
		// The rewrite promotes the page out of the GC buffer (it may have
		// already reached SSD if the dirty buffer filled).
		if en, _ := e.cache.mapping.get(gcLBA); en.state == stateBufGC || !en.state.dirty() {
			t.Fatalf("rewrite left state %v", en.state)
		}
	}
	// Flush drains the GC buffer too.
	if _, err := e.cache.Flush(e.at); err != nil {
		t.Fatal(err)
	}
	if e.cache.State(nil).DirtyBufferedPages != 0 {
		t.Fatal("flush left buffered dirty pages")
	}
	e.checkInvariants()
}

func TestSeparateGCBufferContentOracle(t *testing.T) {
	e := newEnv(t, func(c *Config) { c.SeparateGCBuffer = true })
	rng := rand.New(rand.NewSource(23))
	span := int64(6000)
	versions := make(map[int64]uint64)
	for i := 0; i < 15000; i++ {
		lba := rng.Int63n(span)
		if rng.Float64() < 0.6 {
			e.write(lba, 1)
			versions[lba]++
		} else {
			e.read(lba, 1)
		}
	}
	e.checkInvariants()
	for lba, v := range versions {
		want := blockdev.DataTag(lba, v)
		if _, cached := e.cache.mapping.get(lba); cached {
			got, _, err := e.cache.ReadCheck(e.at, lba)
			if err != nil {
				t.Fatal(err)
			}
			if got != want {
				t.Fatalf("page %d wrong content", lba)
			}
		} else if got, err := e.prim.Content().ReadTag(lba); err != nil {
			t.Fatal(err)
		} else if got != want {
			t.Fatalf("evicted page %d: primary content wrong", lba)
		}
	}
}
