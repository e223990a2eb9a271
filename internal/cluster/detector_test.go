package cluster

import (
	"reflect"
	"testing"

	"srccache/internal/vtime"
)

func TestDetectorFailStop(t *testing.T) {
	d := NewDetector(DetectorConfig{FailAfter: 3})
	if d.State("a") != Healthy {
		t.Fatal("unknown member not Healthy")
	}
	d.Observe("a", 0, true)
	d.Observe("a", 0, true)
	if d.State("a") != Healthy {
		t.Fatal("two failures already classified Down")
	}
	d.Observe("a", 0, true)
	if d.State("a") != Down {
		t.Fatal("three consecutive failures not Down")
	}
	// One success resets the run: transient blips never accumulate.
	d.Observe("a", vtime.Millisecond, false)
	if d.State("a") != Healthy {
		t.Fatal("success did not clear the failure run")
	}
}

func TestDetectorObserveOKClearsFailuresOnly(t *testing.T) {
	d := NewDetector(DetectorConfig{Baseline: vtime.Millisecond, FailAfter: 2})
	for i := 0; i < 5; i++ {
		d.Observe("a", 10*vtime.Millisecond, false) // well past slow threshold
	}
	if d.State("a") != Slow {
		t.Fatalf("State = %v after sustained 10ms pings, want Slow", d.State("a"))
	}
	d.Observe("a", 0, true)
	d.Observe("a", 0, true)
	if d.State("a") != Down {
		t.Fatal("failures on a slow member not Down")
	}
	// A data-op success proves liveness but must not feed the EWMA.
	before := d.EWMA("a")
	d.ObserveOK("a")
	if d.State("a") != Slow {
		t.Fatalf("State = %v after ObserveOK, want Slow again", d.State("a"))
	}
	if d.EWMA("a") != before {
		t.Fatal("ObserveOK moved the latency EWMA")
	}
}

func TestDetectorFailSlowThreshold(t *testing.T) {
	d := NewDetector(DetectorConfig{Baseline: vtime.Millisecond})
	for i := 0; i < 10; i++ {
		d.Observe("fast", 2*vtime.Millisecond, false) // 2x baseline: within factor
		d.Observe("slow", 20*vtime.Millisecond, false)
	}
	if d.State("fast") != Healthy {
		t.Fatalf("fast member = %v", d.State("fast"))
	}
	if d.State("slow") != Slow {
		t.Fatalf("slow member = %v", d.State("slow"))
	}
	// EWMA recovers once the member speeds back up.
	for i := 0; i < 30; i++ {
		d.Observe("slow", vtime.Millisecond, false)
	}
	if d.State("slow") != Healthy {
		t.Fatalf("recovered member still %v at EWMA %v", d.State("slow"), d.EWMA("slow"))
	}
}

func TestDetectorNeedsSamplesBeforeSlow(t *testing.T) {
	// A single outlier must not classify: cold caches and first contacts
	// are always slow.
	d := NewDetector(DetectorConfig{Baseline: vtime.Millisecond})
	d.Observe("a", 100*vtime.Millisecond, false)
	if d.State("a") != Healthy {
		t.Fatal("one outlier classified Slow")
	}
}

func TestDetectorClassifiedSortedAndForget(t *testing.T) {
	d := NewDetector(DetectorConfig{Baseline: vtime.Millisecond, FailAfter: 1})
	d.Observe("z", 0, true)
	d.Observe("a", 0, true)
	for i := 0; i < 5; i++ {
		d.Observe("m", 50*vtime.Millisecond, false)
	}
	down, slow := d.Classified()
	if !reflect.DeepEqual(down, []string{"a", "z"}) || !reflect.DeepEqual(slow, []string{"m"}) {
		t.Fatalf("Classified = %v / %v", down, slow)
	}
	d.Forget("a")
	d.Forget("m")
	down, slow = d.Classified()
	if !reflect.DeepEqual(down, []string{"z"}) || len(slow) != 0 {
		t.Fatalf("after Forget: %v / %v", down, slow)
	}
	if d.State("a") != Healthy {
		t.Fatal("forgotten member not Healthy")
	}
}

func TestDetectorDefaults(t *testing.T) {
	cfg := DetectorConfig{}.withDefaults()
	if cfg.Baseline <= 0 || cfg.FailAfter <= 0 {
		t.Fatalf("defaults unfilled: %+v", cfg)
	}
}
