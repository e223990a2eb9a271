package bench

import (
	"reflect"
	"testing"

	"srccache/internal/blockdev"
	"srccache/internal/vtime"
	"srccache/internal/workload"
)

func mustGen(t *testing.T, cfg workload.Config) *workload.Generator {
	t.Helper()
	g, err := workload.NewGenerator(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// limited ends a source after n requests.
type limited struct {
	src workload.Source
	n   int
}

func (l *limited) Next() (blockdev.Request, bool) {
	if l.n == 0 {
		return blockdev.Request{}, false
	}
	l.n--
	return l.src.Next()
}

func TestRunBasicThroughput(t *testing.T) {
	dev := blockdev.NewMemDevice(1<<20, vtime.Millisecond)
	g := mustGen(t, workload.Config{Span: 1 << 20, Seed: 1})
	res, err := Run(dev, []workload.Source{g}, Options{Slots: 1, MaxRequests: 100})
	if err != nil {
		t.Fatal(err)
	}
	if res.Requests != 100 || res.WriteRequests != 100 {
		t.Fatalf("requests %d/%d", res.Requests, res.WriteRequests)
	}
	// Single slot, 1 ms per op: makespan exactly 100 ms.
	if res.Makespan() != 100*vtime.Millisecond {
		t.Fatalf("makespan %v", res.Makespan())
	}
	wantMBps := float64(100*blockdev.PageSize) / 0.1 / 1e6
	if got := res.MBps(); got != wantMBps {
		t.Fatalf("MBps %v, want %v", got, wantMBps)
	}
	if res.IOPS() != 1000 {
		t.Fatalf("IOPS %v", res.IOPS())
	}
	if res.Latency.Count() != 100 || res.Latency.Mean() != vtime.Millisecond {
		t.Fatalf("latency count %d mean %v", res.Latency.Count(), res.Latency.Mean())
	}
}

func TestRunRequiresBoundOnInfiniteSource(t *testing.T) {
	dev := blockdev.NewMemDevice(1<<20, 0)
	g := mustGen(t, workload.Config{Span: 1 << 20})
	if _, err := Run(dev, []workload.Source{g}, Options{}); err == nil {
		t.Fatal("accepted unbounded infinite source")
	}
	if _, err := Run(dev, nil, Options{MaxRequests: 1}); err == nil {
		t.Fatal("accepted empty sources")
	}
}

func TestRunFiniteSourceEnds(t *testing.T) {
	dev := blockdev.NewMemDevice(1<<20, vtime.Microsecond)
	g := &limited{mustGen(t, workload.Config{Span: 1 << 20, ReadFraction: 1}), 10}
	res, err := Run(dev, []workload.Source{g}, Options{Slots: 4})
	if err != nil {
		t.Fatal(err)
	}
	if res.Requests != 10 || res.ReadRequests != 10 {
		t.Fatalf("requests %d", res.Requests)
	}
}

func TestRunMultiSourceSlotBinding(t *testing.T) {
	dev := blockdev.NewMemDevice(4<<20, vtime.Microsecond)
	a := &limited{mustGen(t, workload.Config{Span: 1 << 20, Seed: 1}), 50}
	b := &limited{mustGen(t, workload.Config{Span: 1 << 20, Offset: 1 << 20, Seed: 2}), 50}
	res, err := Run(dev, []workload.Source{a, b}, Options{Slots: 4})
	if err != nil {
		t.Fatal(err)
	}
	if res.Requests != 100 {
		t.Fatalf("requests %d, want both sources drained", res.Requests)
	}
}

func TestRunStartOffset(t *testing.T) {
	dev := blockdev.NewMemDevice(1<<20, vtime.Millisecond)
	g := mustGen(t, workload.Config{Span: 1 << 20})
	start := vtime.Time(5 * vtime.Second)
	res, err := Run(dev, []workload.Source{g}, Options{Slots: 1, MaxRequests: 10, Start: start})
	if err != nil {
		t.Fatal(err)
	}
	if res.Start != start {
		t.Fatalf("start %v", res.Start)
	}
	if res.Makespan() != 10*vtime.Millisecond {
		t.Fatalf("makespan %v", res.Makespan())
	}
}

func TestRunPropagatesErrors(t *testing.T) {
	dev := blockdev.NewMemDevice(1<<20, 0)
	f := blockdev.NewFaultPlan(dev)
	f.Fail()
	g := mustGen(t, workload.Config{Span: 1 << 20})
	if _, err := Run(f, []workload.Source{g}, Options{MaxRequests: 5}); err == nil {
		t.Fatal("device failure not propagated")
	}
}

func TestParallelSlotsOverlap(t *testing.T) {
	// A device with internal parallelism would overlap; MemDevice is
	// FIFO, so more slots must NOT reduce makespan, proving the closed
	// loop respects device completion times.
	mk := func(slots int) vtime.Duration {
		dev := blockdev.NewMemDevice(1<<20, vtime.Millisecond)
		g := mustGen(t, workload.Config{Span: 1 << 20, Seed: 3})
		res, err := Run(dev, []workload.Source{g}, Options{Slots: slots, MaxRequests: 50})
		if err != nil {
			t.Fatal(err)
		}
		return res.Makespan()
	}
	if mk(8) != mk(1) {
		t.Fatal("FIFO device makespan changed with slot count")
	}
}

func TestCountersHitRatio(t *testing.T) {
	c := Counters{Reads: 10, ReadHits: 7}
	if c.HitRatio() != 0.7 {
		t.Fatalf("hit ratio %v", c.HitRatio())
	}
	if (Counters{}).HitRatio() != 0 {
		t.Fatal("empty counters hit ratio")
	}
}

// TestCountersAddCoversEveryField gives every field of two Counters a
// distinct value by reflection and checks the sum field by field, so a
// field added to the struct and left out of Add fails here.
func TestCountersAddCoversEveryField(t *testing.T) {
	var a, b Counters
	av, bv := reflect.ValueOf(&a).Elem(), reflect.ValueOf(&b).Elem()
	for i := 0; i < av.NumField(); i++ {
		if av.Field(i).Kind() != reflect.Int64 {
			t.Fatalf("Counters.%s is %v; Add and this test sum int64 fields only", av.Type().Field(i).Name, av.Field(i).Kind())
		}
		av.Field(i).SetInt(int64(i + 1))
		bv.Field(i).SetInt(int64(100 * (i + 1)))
	}
	a.Add(b)
	for i := 0; i < av.NumField(); i++ {
		if got, want := av.Field(i).Int(), int64(101*(i+1)); got != want {
			t.Errorf("Add dropped or mis-summed Counters.%s: got %d, want %d", av.Type().Field(i).Name, got, want)
		}
	}
}

func TestDeviceSnapshotDelta(t *testing.T) {
	devs := []blockdev.Device{
		blockdev.NewMemDevice(1<<20, 0),
		blockdev.NewMemDevice(1<<20, 0),
	}
	before := SnapshotDevices(devs)
	if _, err := devs[0].Submit(0, blockdev.Request{Op: blockdev.OpWrite, Off: 0, Len: blockdev.PageSize}); err != nil {
		t.Fatal(err)
	}
	if _, err := devs[1].Submit(0, blockdev.Request{Op: blockdev.OpRead, Off: 0, Len: 2 * blockdev.PageSize}); err != nil {
		t.Fatal(err)
	}
	if got := DeltaBytes(devs, before); got != 3*blockdev.PageSize {
		t.Fatalf("delta %d", got)
	}
	if IOAmplification(2*blockdev.PageSize, 3*blockdev.PageSize) != 1.5 {
		t.Fatal("amplification math wrong")
	}
	if IOAmplification(0, 5) != 0 {
		t.Fatal("zero host bytes should yield zero amplification")
	}
}
