package srccache_test

import (
	"testing"

	"srccache"
)

func TestNewSystemDefaults(t *testing.T) {
	sys, err := srccache.NewSystem(srccache.SystemConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if len(sys.SSDs) != 4 || sys.Cache == nil || sys.Primary == nil {
		t.Fatal("system incomplete")
	}
	cfg := sys.Cache.Config()
	if cfg.GC != srccache.SelGC || cfg.Level != srccache.RAID5 || cfg.Parity != srccache.NPC {
		t.Fatalf("cache defaults %+v", cfg)
	}
}

func TestSystemServesIO(t *testing.T) {
	sys, err := srccache.NewSystem(srccache.SystemConfig{Cache: srccache.CacheConfig{TrackContent: true}})
	if err != nil {
		t.Fatal(err)
	}
	var at srccache.Time
	for lba := int64(0); lba < 100; lba++ {
		done, err := sys.Cache.Submit(at, srccache.Request{
			Op: srccache.OpWrite, Off: lba * srccache.PageSize, Len: srccache.PageSize,
		})
		if err != nil {
			t.Fatal(err)
		}
		if done > at {
			at = done
		}
	}
	done, err := sys.Cache.Submit(at, srccache.Request{Op: srccache.OpRead, Off: 0, Len: srccache.PageSize})
	if err != nil {
		t.Fatal(err)
	}
	if done < at {
		t.Fatal("read completed before submission")
	}
	ctr := sys.Cache.Counters()
	if ctr.Writes != 100 || ctr.Reads != 1 || ctr.ReadHits != 1 {
		t.Fatalf("counters %+v", ctr)
	}
}

func TestWorkloadThroughBench(t *testing.T) {
	sys, err := srccache.NewSystem(srccache.SystemConfig{})
	if err != nil {
		t.Fatal(err)
	}
	gen, err := srccache.NewWorkload(srccache.WorkloadConfig{
		Span:         64 << 20,
		ReadFraction: 0.3,
		Seed:         1,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := srccache.RunBench(sys.Cache, []srccache.WorkloadSource{gen}, srccache.BenchOptions{
		Slots:       8,
		MaxRequests: 2000,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Requests != 2000 || res.MBps() <= 0 {
		t.Fatalf("result %+v", res)
	}
}

func TestTraceGroupAndSynth(t *testing.T) {
	specs, err := srccache.TraceGroup("Write")
	if err != nil || len(specs) != 10 {
		t.Fatalf("TraceGroup: %v, %d specs", err, len(specs))
	}
	synth, err := srccache.NewTraceSynth(srccache.TraceSynthConfig{
		Spec:  specs[0],
		Scale: 1.0 / 1024,
	})
	if err != nil {
		t.Fatal(err)
	}
	req, ok := synth.Next()
	if !ok || req.Len <= 0 {
		t.Fatalf("synth request %+v", req)
	}
	if _, err := srccache.TraceGroup("bogus"); err == nil {
		t.Fatal("unknown group accepted")
	}
}
