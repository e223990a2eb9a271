package raid

import (
	"errors"
	"fmt"
	"hash"
	"hash/fnv"
	"math/rand"
	"strings"
	"testing"

	"srccache/internal/blockdev"
	"srccache/internal/vtime"
)

const devCap = 1 << 20 // 256 pages per member

// newArray builds an array of n MemDevices wrapped for fault injection.
func newArray(t *testing.T, level Level, chunk int64, n int) (*Array, []*blockdev.FaultPlan) {
	t.Helper()
	devs := make([]blockdev.Device, n)
	faults := make([]*blockdev.FaultPlan, n)
	for i := range devs {
		f := blockdev.NewFaultPlan(blockdev.NewMemDevice(devCap, 100*vtime.Microsecond))
		devs[i] = f
		faults[i] = f
	}
	a, err := New(level, chunk, devs)
	if err != nil {
		t.Fatal(err)
	}
	return a, faults
}

func TestNewValidation(t *testing.T) {
	mk := func(n int) []blockdev.Device {
		devs := make([]blockdev.Device, n)
		for i := range devs {
			devs[i] = blockdev.NewMemDevice(devCap, 0)
		}
		return devs
	}
	if _, err := New(Level0, blockdev.PageSize, mk(1)); err == nil {
		t.Fatal("accepted single device")
	}
	if _, err := New(Level5, blockdev.PageSize, mk(2)); err == nil {
		t.Fatal("accepted 2-device RAID-5")
	}
	if _, err := New(Level1, blockdev.PageSize, mk(3)); err == nil {
		t.Fatal("accepted odd mirror count")
	}
	if _, err := New(Level0, 100, mk(2)); err == nil {
		t.Fatal("accepted unaligned chunk")
	}
	if _, err := New(Level(42), blockdev.PageSize, mk(4)); err == nil {
		t.Fatal("accepted unknown level")
	}
	uneven := mk(2)
	uneven[1] = blockdev.NewMemDevice(2*devCap, 0)
	if _, err := New(Level0, blockdev.PageSize, uneven); err == nil {
		t.Fatal("accepted unequal capacities")
	}
}

func TestCapacityPerLevel(t *testing.T) {
	tests := []struct {
		level Level
		n     int
		want  int64
	}{
		{Level0, 4, 4 * devCap},
		{Level1, 4, 2 * devCap},
		{Level4, 4, 3 * devCap},
		{Level5, 4, 3 * devCap},
	}
	for _, tt := range tests {
		t.Run(tt.level.String(), func(t *testing.T) {
			a, _ := newArray(t, tt.level, blockdev.PageSize, tt.n)
			if a.Capacity() != tt.want {
				t.Fatalf("capacity = %d, want %d", a.Capacity(), tt.want)
			}
		})
	}
}

func TestLevelStrings(t *testing.T) {
	if Level0.String() != "RAID-0" || Level5.String() != "RAID-5" || Level4.String() != "RAID-4" || Level1.String() != "RAID-1" {
		t.Fatal("level names wrong")
	}
	if Level10 != Level1 {
		t.Fatal("Level10 should alias Level1")
	}
}

// TestLocatePageBijective checks the layout Submit relies on: every logical
// page lands on exactly one (member, member page), never on its stripe's
// parity chunk.
func TestLocatePageBijective(t *testing.T) {
	for _, level := range []Level{Level0, Level1, Level4, Level5} {
		a, _ := newArray(t, level, 2*blockdev.PageSize, 4)
		seen := make(map[[2]int64]int64)
		pages := a.Capacity() / blockdev.PageSize
		for p := int64(0); p < pages; p++ {
			off := p * blockdev.PageSize
			stripe, pos := a.locate(off / a.chunk)
			dev := a.dataDev(stripe, pos)
			dpage := (stripe*a.chunk + off%a.chunk) / blockdev.PageSize
			if dpage < 0 || dpage >= devCap/blockdev.PageSize {
				t.Fatalf("%v: page %d -> dev page %d out of range", level, p, dpage)
			}
			if (level == Level4 || level == Level5) && dev == a.parityDev(stripe) {
				t.Fatalf("%v: page %d lands on stripe %d's parity member %d", level, p, stripe, dev)
			}
			key := [2]int64{int64(dev), dpage}
			if prev, dup := seen[key]; dup {
				t.Fatalf("%v: pages %d and %d both map to dev %d page %d", level, prev, p, dev, dpage)
			}
			seen[key] = p
		}
	}
}

func TestParityDevRotatesOnlyForRAID5(t *testing.T) {
	a4, _ := newArray(t, Level4, blockdev.PageSize, 4)
	a5, _ := newArray(t, Level5, blockdev.PageSize, 4)
	devs5 := make(map[int]bool)
	for s := int64(0); s < 8; s++ {
		if got := a4.parityDev(s); got != 3 {
			t.Fatalf("RAID-4 parity dev for stripe %d = %d, want 3", s, got)
		}
		devs5[a5.parityDev(s)] = true
	}
	if len(devs5) != 4 {
		t.Fatalf("RAID-5 parity visited %d devices, want 4", len(devs5))
	}
}

func TestSmallWriteRMWPenalty(t *testing.T) {
	a0, _ := newArray(t, Level0, blockdev.PageSize, 4)
	a5, _ := newArray(t, Level5, blockdev.PageSize, 4)
	req := blockdev.Request{Op: blockdev.OpWrite, Off: 0, Len: blockdev.PageSize}
	if _, err := a0.Submit(0, req); err != nil {
		t.Fatal(err)
	}
	if _, err := a5.Submit(0, req); err != nil {
		t.Fatal(err)
	}
	readDev := func(a *Array) (reads, writes int64) {
		for _, d := range a.Devices() {
			reads += d.Stats().ReadOps
			writes += d.Stats().WriteOps
		}
		return
	}
	r0, w0 := readDev(a0)
	if r0 != 0 || w0 != 1 {
		t.Fatalf("RAID-0 small write did %d reads %d writes", r0, w0)
	}
	// RAID-5 small write: read old data + old parity, write new data + parity.
	r5, w5 := readDev(a5)
	if r5 != 2 || w5 != 2 {
		t.Fatalf("RAID-5 small write did %d reads %d writes, want 2/2", r5, w5)
	}
}

func TestFullStripeWriteSkipsReads(t *testing.T) {
	a5, _ := newArray(t, Level5, blockdev.PageSize, 4)
	// 3 data chunks = one full stripe.
	if _, err := a5.Submit(0, blockdev.Request{Op: blockdev.OpWrite, Off: 0, Len: 3 * blockdev.PageSize}); err != nil {
		t.Fatal(err)
	}
	var reads, writes int64
	for _, d := range a5.Devices() {
		reads += d.Stats().ReadOps
		writes += d.Stats().WriteOps
	}
	if reads != 0 {
		t.Fatalf("full-stripe write issued %d reads", reads)
	}
	if writes != 4 { // 3 data + 1 parity
		t.Fatalf("full-stripe write issued %d device writes, want 4", writes)
	}
}

func TestLargeWriteCoalescesPerDevice(t *testing.T) {
	a5, _ := newArray(t, Level5, blockdev.PageSize, 4)
	// 6 full stripes in one request -> one write per device.
	if _, err := a5.Submit(0, blockdev.Request{Op: blockdev.OpWrite, Off: 0, Len: 18 * blockdev.PageSize}); err != nil {
		t.Fatal(err)
	}
	for i, d := range a5.Devices() {
		if d.Stats().WriteOps != 1 {
			t.Fatalf("device %d received %d writes, want 1 coalesced", i, d.Stats().WriteOps)
		}
	}
}

// TestMirrorWritesBothAndReadsSurvivor: a Level1 write goes to both members
// of the pair, and reads come from the first one only, so a failed mirror
// partner does not touch them. A failed first member is the caller's error.
func TestMirrorWritesBothAndReadsSurvivor(t *testing.T) {
	a1, faults := newArray(t, Level1, blockdev.PageSize, 4)
	req := blockdev.Request{Op: blockdev.OpWrite, Off: 0, Len: blockdev.PageSize}
	if _, err := a1.Submit(0, req); err != nil {
		t.Fatal(err)
	}
	if faults[0].Stats().WriteOps != 1 || faults[1].Stats().WriteOps != 1 {
		t.Fatal("mirror write did not hit both members")
	}
	read := blockdev.Request{Op: blockdev.OpRead, Off: 0, Len: blockdev.PageSize}
	faults[1].Fail()
	if _, err := a1.Submit(0, read); err != nil {
		t.Fatalf("read with the mirror partner failed: %v", err)
	}
	faults[0].Fail()
	if _, err := a1.Submit(0, read); !errors.Is(err, blockdev.ErrDeviceFailed) {
		t.Fatalf("read of a failed member err = %v", err)
	}
}

// TestDegradedParityRead: with a member failed, a parity array still serves
// chunks that live on the survivors, and a read of the failed member's chunk
// is the caller's error; nothing is reconstructed.
func TestDegradedParityRead(t *testing.T) {
	a5, faults := newArray(t, Level5, blockdev.PageSize, 4)
	if _, err := a5.Submit(0, blockdev.Request{Op: blockdev.OpWrite, Off: 0, Len: 3 * blockdev.PageSize}); err != nil {
		t.Fatal(err)
	}
	faults[a5.dataDev(0, 0)].Fail()
	before := faults[a5.parityDev(0)].Stats().ReadOps
	if _, err := a5.Submit(0, blockdev.Request{Op: blockdev.OpRead, Off: blockdev.PageSize, Len: blockdev.PageSize}); err != nil {
		t.Fatalf("read of a surviving member: %v", err)
	}
	if _, err := a5.Submit(0, blockdev.Request{Op: blockdev.OpRead, Off: 0, Len: blockdev.PageSize}); !errors.Is(err, blockdev.ErrDeviceFailed) {
		t.Fatalf("read of the failed member err = %v", err)
	}
	if faults[a5.parityDev(0)].Stats().ReadOps != before {
		t.Fatal("degraded read touched parity")
	}
}

func TestRAID0FailureIsFatal(t *testing.T) {
	a0, faults := newArray(t, Level0, blockdev.PageSize, 4)
	faults[0].Fail()
	if _, err := a0.Submit(0, blockdev.Request{Op: blockdev.OpRead, Off: 0, Len: blockdev.PageSize}); !errors.Is(err, blockdev.ErrDeviceFailed) {
		t.Fatalf("RAID-0 read of a failed member err = %v", err)
	}
}

func TestFlushAndTrimForward(t *testing.T) {
	a5, faults := newArray(t, Level5, blockdev.PageSize, 4)
	if _, err := a5.Submit(0, blockdev.Request{Op: blockdev.OpWrite, Off: 0, Len: 3 * blockdev.PageSize}); err != nil {
		t.Fatal(err)
	}
	if _, err := a5.Flush(0); err != nil {
		t.Fatal(err)
	}
	for i, f := range faults {
		if f.Stats().Flushes != 1 {
			t.Fatalf("device %d flushes = %d", i, f.Stats().Flushes)
		}
	}
	if _, err := a5.Submit(0, blockdev.Request{Op: blockdev.OpTrim, Off: 0, Len: 3 * blockdev.PageSize}); err != nil {
		t.Fatal(err)
	}
	for i, f := range faults {
		if f.Stats().TrimOps != 1 {
			t.Fatalf("device %d trims = %d", i, f.Stats().TrimOps)
		}
	}
	// A failed member's flush error reaches the caller.
	faults[1].Fail()
	if _, err := a5.Flush(0); !errors.Is(err, blockdev.ErrDeviceFailed) {
		t.Fatalf("flush with a failed member err = %v", err)
	}
}

func TestDeviceBytesAmplification(t *testing.T) {
	a5, _ := newArray(t, Level5, blockdev.PageSize, 4)
	// One full stripe: 3 pages logical -> 4 pages physical.
	if _, err := a5.Submit(0, blockdev.Request{Op: blockdev.OpWrite, Off: 0, Len: 3 * blockdev.PageSize}); err != nil {
		t.Fatal(err)
	}
	if got, want := a5.DeviceBytes(), int64(4*blockdev.PageSize); got != want {
		t.Fatalf("device bytes = %d, want %d", got, want)
	}
}

// TestMemberErrorsPropagate fails one member and checks that every kind of
// request touching it returns the member's error: the array has no recovery
// path, so skipping the member would lose a write silently.
func TestMemberErrorsPropagate(t *testing.T) {
	const page = blockdev.PageSize
	read := func(a *Array) error {
		_, err := a.Submit(0, blockdev.Request{Op: blockdev.OpRead, Off: 0, Len: page})
		return err
	}
	write := func(pages int64) func(*Array) error {
		return func(a *Array) error {
			_, err := a.Submit(0, blockdev.Request{Op: blockdev.OpWrite, Off: 0, Len: pages * page})
			return err
		}
	}
	trim := func(a *Array) error {
		_, err := a.Submit(0, blockdev.Request{Op: blockdev.OpTrim, Off: 0, Len: page})
		return err
	}
	flush := func(a *Array) error {
		_, err := a.Flush(0)
		return err
	}
	type op struct {
		name   string
		member int // the member that fails
		run    func(*Array) error
	}
	// Logical page 0 lives on member 0 at every level; stripe 0's parity
	// is member 3 under both RAID-4 and RAID-5.
	common := func(stripePages int64) []op {
		return []op{
			{"read", 0, read},
			{"small write", 0, write(1)},
			{"full-stripe write", 0, write(stripePages)},
			{"trim", 2, trim},
			{"flush", 2, flush},
		}
	}
	for _, tc := range []struct {
		level Level
		ops   []op
	}{
		{Level0, common(4)},
		{Level1, append(common(2), op{"mirror write", 1, write(1)})},
		{Level4, append(common(3), op{"small write, parity member", 3, write(1)})},
		{Level5, append(common(3), op{"full-stripe write, parity member", 3, write(3)})},
	} {
		for _, o := range tc.ops {
			t.Run(fmt.Sprintf("%v/%s", tc.level, o.name), func(t *testing.T) {
				a, faults := newArray(t, tc.level, page, 4)
				faults[o.member].Fail()
				if err := o.run(a); !errors.Is(err, blockdev.ErrDeviceFailed) {
					t.Fatalf("member %d failed: err = %v, want ErrDeviceFailed", o.member, err)
				}
			})
		}
	}
}

// tap records every request a member sees, in issue order.
type tap struct {
	blockdev.Device
	id    int
	order hash.Hash64
}

func (d tap) Submit(at vtime.Time, req blockdev.Request) (vtime.Time, error) {
	fmt.Fprintf(d.order, "%d %d %v %d %d\n", d.id, at, req.Op, req.Off, req.Len)
	return d.Device.Submit(at, req)
}

func (d tap) Flush(at vtime.Time) (vtime.Time, error) {
	fmt.Fprintf(d.order, "%d %d flush\n", d.id, at)
	return d.Device.Flush(at)
}

// TestArrayTrafficPinned pins what the baselines measure on fault-free
// members: every member request in issue order, each member's Stats and the
// completion time of every logical request. A seeded stream of reads,
// small, partial-stripe, full-stripe and multi-stripe writes, trims and
// flushes runs on each level at two chunk sizes, arriving faster than the
// members drain so queueing shows in the times. A change to the array must
// leave the digests untouched; on a mismatch the dump shows what moved.
func TestArrayTrafficPinned(t *testing.T) {
	for _, tc := range []struct {
		level      Level
		chunkPages int64
		want       string
	}{
		{Level0, 1, "381e00635f05cd03"},
		{Level0, 2, "27190ecc1c19162c"},
		{Level1, 1, "2af19186b3899b09"},
		{Level1, 2, "b7e0d765ba1368ff"},
		{Level4, 1, "e6c433c974ac4f87"},
		{Level4, 2, "465cb1b0acede913"},
		{Level5, 1, "dba69af777d38128"},
		{Level5, 2, "63a38be010bb5e5a"},
	} {
		t.Run(fmt.Sprintf("%v/chunk=%d", tc.level, tc.chunkPages), func(t *testing.T) {
			const page = blockdev.PageSize
			order, times := fnv.New64a(), fnv.New64a()
			devs := make([]blockdev.Device, 4)
			for i := range devs {
				devs[i] = tap{blockdev.NewMemDevice(devCap, vtime.Duration(100+10*i)*vtime.Microsecond), i, order}
			}
			a, err := New(tc.level, tc.chunkPages*page, devs)
			if err != nil {
				t.Fatal(err)
			}
			stripe := a.chunk * int64(a.dataDevs)
			pages := a.Capacity() / page
			rng := rand.New(rand.NewSource(32))
			var at vtime.Time
			for i := 0; i < 3000; i++ {
				off := rng.Int63n(pages) * page
				req, flush := blockdev.Request{Op: blockdev.OpWrite}, false
				switch rng.Intn(8) {
				case 0, 1: // read up to two stripes
					req.Op, req.Off, req.Len = blockdev.OpRead, off, (1+rng.Int63n(2*stripe/page))*page
				case 2: // small write
					req.Off, req.Len = off, page
				case 3: // partial stripe: a chunk and a page from a chunk boundary
					req.Off, req.Len = off/a.chunk*a.chunk, a.chunk+page
				case 4: // one full stripe
					req.Off, req.Len = off/stripe*stripe, stripe
				case 5: // several stripes with ragged ends
					req.Off, req.Len = off, (1+rng.Int63n(3))*stripe+rng.Int63n(stripe/page)*page
				case 6:
					req.Op, req.Off, req.Len = blockdev.OpTrim, off, (1+rng.Int63n(stripe/page))*page
				case 7:
					flush = true
				}
				var done vtime.Time
				if flush {
					done, err = a.Flush(at)
				} else {
					req.Off = min(req.Off, a.Capacity()-req.Len)
					done, err = a.Submit(at, req)
				}
				if err != nil {
					t.Fatalf("request %d %+v: %v", i, req, err)
				}
				fmt.Fprintf(times, "%d\n", done)
				at = at.Add(vtime.Duration(rng.Int63n(300)) * vtime.Microsecond)
			}
			var dump strings.Builder
			fmt.Fprintf(&dump, "at %d order %016x times %016x\narray %+v\n", at, order.Sum64(), times.Sum64(), *a.Stats())
			for i, d := range devs {
				fmt.Fprintf(&dump, "member %d %+v\n", i, *d.Stats())
			}
			h := fnv.New64a()
			h.Write([]byte(dump.String()))
			if got := fmt.Sprintf("%016x", h.Sum64()); got != tc.want {
				t.Errorf("traffic digest %s, want %s:\n%s", got, tc.want, dump.String())
			}
		})
	}
}
