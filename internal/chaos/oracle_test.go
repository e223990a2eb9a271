package chaos

import (
	"errors"
	"maps"
	"testing"

	"srccache/internal/blockdev"
	"srccache/internal/src"
	"srccache/internal/vtime"
)

// Pages of the oracle fixture: written holds version 1 (hot holds 2), all
// flushed and recovered into the cache; evicted was never cached and
// sits on primary at version 1.
const (
	written = 8
	hot     = int64(3)
	evicted = int64(100)
)

// oracleFixture writes pages [0, written) once and hot once more, flushes,
// crashes every SSD and recovers. The array has the crash matrix's shape
// and is RAID-0, so a corrupted dirty page cannot be repaired and fails its
// read-back. The model it returns is the one the fixture acknowledged, all
// of it durable.
func oracleFixture(t *testing.T) oracle {
	t.Helper()
	devs := make([]blockdev.Device, numSSD)
	for i := range devs {
		devs[i] = blockdev.NewMemDevice(matrixShape.ssdCap, 10*vtime.Microsecond)
	}
	prim := blockdev.NewMemDevice(matrixShape.primCap, 0)
	cache, err := src.New(src.Config{
		SSDs: devs, Primary: prim, EraseGroupSize: matrixShape.egs, SegmentColumn: segCol,
		Level: src.RAID0, Parity: src.NPC, TrackContent: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	latest := map[int64]uint64{evicted: 1}
	write := func(lba, n int64) {
		if _, err := cache.Submit(0, blockdev.Request{
			Op: blockdev.OpWrite, Off: lba * blockdev.PageSize, Len: n * blockdev.PageSize,
		}); err != nil {
			t.Fatal(err)
		}
		for p := lba; p < lba+n; p++ {
			latest[p]++
		}
	}
	write(0, written)
	write(hot, 1)
	if _, err := cache.Flush(0); err != nil {
		t.Fatal(err)
	}
	for _, d := range devs {
		d.Content().Crash()
	}
	if _, err := cache.Recover(); err != nil {
		t.Fatal(err)
	}
	if err := prim.Content().WriteTag(evicted, blockdev.DataTag(evicted, 1)); err != nil {
		t.Fatal(err)
	}
	return oracle{Cache: cache, Primary: prim.Content(), Latest: latest, Durable: maps.Clone(latest), Span: 2 * evicted}
}

// corrupt silently corrupts hot's copy on its SSD.
func corrupt(t *testing.T, o *oracle) {
	t.Helper()
	col, page, ok := o.Cache.Locate(hot)
	if !ok {
		t.Fatalf("page %d is not on an SSD", hot)
	}
	if err := o.Cache.CacheDevices()[col].Content().Corrupt(page); err != nil {
		t.Fatal(err)
	}
}

// TestOracleNamesEachInvariant plants one violation at a time — a doctored
// model, a corrupted SSD tag, a missing primary tag, a short span — and
// requires each oracle mode to name the invariant it breaks, or to pass
// where the mode allows the state. The unplanted fixture passes every mode.
func TestOracleNamesEachInvariant(t *testing.T) {
	type mode int
	const (
		recovered  mode = iota // strict, with read-back
		reorder                // not strict, with read-back
		noReadBack             // strict, without read-back
		live                   // live over the span
	)
	modes := [...]string{"recovered", "reorder", "no-read-back", "live"}
	for _, tc := range []struct {
		name  string
		plant func(t *testing.T, o *oracle)
		want  [4]string // per mode; "" passes
	}{
		{"none", func(*testing.T, *oracle) {}, [4]string{}},
		{"latest below the cached version", func(_ *testing.T, o *oracle) { o.Latest[hot] = 1 },
			[4]string{noPhantomData, noPhantomData, noPhantomData, noPhantomData}},
		{"latest above the cached version", func(_ *testing.T, o *oracle) { o.Latest[hot] = 3 },
			[4]string{"", "", "", noWrongBytes}},
		{"durable above the cached version", func(_ *testing.T, o *oracle) { o.Latest[hot], o.Durable[hot] = 3, 3 },
			[4]string{durableAfterFlush, "", durableAfterFlush, noWrongBytes}},
		{"durable above primary's version", func(_ *testing.T, o *oracle) { o.Latest[evicted], o.Durable[evicted] = 2, 2 },
			[4]string{durableAfterFlush, "", durableAfterFlush, durableAfterFlush}},
		{"latest above primary's version", func(_ *testing.T, o *oracle) { o.Latest[evicted] = 2 },
			[4]string{}},
		{"corrupted SSD tag", corrupt,
			[4]string{tornDiscarded, "", "", noWrongBytes}},
		{"missing primary tag", func(t *testing.T, o *oracle) {
			if err := o.Primary.WriteTag(evicted, blockdev.ZeroTag); err != nil {
				t.Fatal(err)
			}
		}, [4]string{durableAfterFlush, "", durableAfterFlush, durableAfterFlush}},
		{"span short of the mapped pages", func(_ *testing.T, o *oracle) { o.Span = written - 1 },
			[4]string{noPhantomData, noPhantomData, noPhantomData, ""}},
	} {
		for m, want := range tc.want {
			o := oracleFixture(t)
			tc.plant(t, &o)
			var err error
			switch m := mode(m); m {
			case live:
				for lba := int64(0); lba < o.Span && err == nil; lba++ {
					_, _, err = o.live(0, lba)
				}
			default:
				err = o.recovered(0, m != reorder, m != noReadBack)
			}
			var v *violation
			switch {
			case want == "" && err != nil:
				t.Errorf("%s, %s mode: %v, want a pass", tc.name, modes[m], err)
			case want != "" && !errors.As(err, &v):
				t.Errorf("%s, %s mode: %v, want a %s violation", tc.name, modes[m], err, want)
			case want != "" && v.invariant != want:
				t.Errorf("%s, %s mode: %v, want %s", tc.name, modes[m], err, want)
			}
		}
	}
}

// TestOracleLiveReportsWhereItChecked pins live's two results beside its
// verdict: a cached page is read back, which advances the clock, and an
// uncached or never-written page is not.
func TestOracleLiveReportsWhereItChecked(t *testing.T) {
	o := oracleFixture(t)
	at := vtime.Time(0)
	for _, tc := range []struct {
		lba    int64
		cached bool
	}{{hot, true}, {evicted, false}, {evicted + 1, false}} {
		next, cached, err := o.live(at, tc.lba)
		if err != nil || cached != tc.cached {
			t.Fatalf("page %d: cached %v, err %v; want cached %v", tc.lba, cached, err, tc.cached)
		}
		if advanced := next > at; advanced != tc.cached {
			t.Errorf("page %d: clock %v -> %v, want it advanced only by a read-back", tc.lba, at, next)
		}
		at = next
	}
}
