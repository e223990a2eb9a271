package bitmap

import (
	"math/bits"
	"testing"
	"testing/quick"
)

// count counts b's set bits from its words.
func count(b *Bitmap) int64 {
	var n int
	for _, w := range b.words {
		n += bits.OnesCount64(w)
	}
	return int64(n)
}

func TestSetGetClear(t *testing.T) {
	b := New(130)
	if b.Get(0) || b.Get(129) {
		t.Fatal("fresh bitmap has set bits")
	}
	b.Set(0)
	b.Set(129)
	b.Set(64)
	if !b.Get(0) || !b.Get(129) || !b.Get(64) {
		t.Fatal("set bits not readable")
	}
	if count(b) != 3 {
		t.Fatalf("popcount %d", count(b))
	}
	b.Set(64) // idempotent
	if count(b) != 3 {
		t.Fatalf("double set changed popcount to %d", count(b))
	}
	b.Clear(64)
	if b.Get(64) || count(b) != 2 {
		t.Fatalf("clear failed: popcount %d", count(b))
	}
	b.Clear(64) // idempotent
	if count(b) != 2 {
		t.Fatalf("double clear changed popcount to %d", count(b))
	}
	b.Reset()
	if count(b) != 0 || b.Get(0) {
		t.Fatal("reset failed")
	}
}

func TestOutOfRangeIgnored(t *testing.T) {
	b := New(10)
	b.Set(-1)
	b.Set(10)
	b.Clear(99)
	if b.Get(-1) || b.Get(10) {
		t.Fatal("out of range reads true")
	}
	if count(b) != 0 {
		t.Fatalf("out of range set changed popcount to %d", count(b))
	}
	if b.Len() != 10 {
		t.Fatalf("len %d", b.Len())
	}
}

func TestPopCountMatchesNaive(t *testing.T) {
	f := func(idxs []uint16) bool {
		b := New(1 << 16)
		ref := make(map[int64]bool)
		for _, i := range idxs {
			b.Set(int64(i))
			ref[int64(i)] = true
		}
		if count(b) != int64(len(ref)) {
			return false
		}
		for i := range ref {
			if !b.Get(i) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
