package netlink

import (
	"testing"

	"srccache/internal/vtime"
)

func TestDefaults(t *testing.T) {
	l, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}
	if l.Config().RTT != 200*vtime.Microsecond {
		t.Fatalf("defaults %+v", l.Config())
	}
	if _, err := New(Config{RTT: -1}); err == nil {
		t.Fatal("accepted negative rtt")
	}
}

func TestTransferTimeAndSerialization(t *testing.T) {
	l, err := New(Config{RTT: 2 * vtime.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	// One second's worth of bytes takes 1 s + half RTT propagation.
	done := l.Send(0, bandwidth)
	want := vtime.Time(vtime.Second + vtime.Millisecond)
	if done != want {
		t.Fatalf("send done %v, want %v", done, want)
	}
	// Second transfer in the same direction queues behind the first.
	done2 := l.Send(0, bandwidth)
	if done2 != want.Add(vtime.Second) {
		t.Fatalf("queued send done %v", done2)
	}
}

func TestJitterDeterministicAndBounded(t *testing.T) {
	cfg := Config{RTT: 2 * vtime.Millisecond, Jitter: vtime.Millisecond, Seed: 42}
	sequence := func() []vtime.Time {
		l, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		var out []vtime.Time
		for i := 0; i < 32; i++ {
			out = append(out, l.Send(0, 1000), l.Recv(0, 1000))
		}
		return out
	}
	a, b := sequence(), sequence()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverged at %d: %v vs %v", i, a[i], b[i])
		}
	}
	// The per-send queueing deltas must not all be equal: a constant delta
	// would mean the jitter draw never varied anything.
	varied := false
	for i := 4; i < len(a); i += 2 {
		if a[i]-a[i-2] != a[2]-a[0] {
			varied = true
		}
	}
	if !varied {
		t.Fatal("jitter never varied the completion times")
	}
	smooth, err := New(Config{RTT: 2 * vtime.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	jittered, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	base := smooth.Send(0, 1000)
	got := jittered.Send(0, 1000)
	if got < base || got > base.Add(cfg.Jitter) {
		t.Fatalf("jittered completion %v outside [%v, %v]", got, base, base.Add(cfg.Jitter))
	}
	if _, err := New(Config{Jitter: -1}); err == nil {
		t.Fatal("accepted negative jitter")
	}
}

func TestDegradeStretchesTransfers(t *testing.T) {
	l, err := New(Config{RTT: 2 * vtime.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	healthy := l.Send(0, bandwidth) // 1s transfer + 1ms propagation
	l.Degrade(3)
	if l.factor != 3 {
		t.Fatalf("fail-slow factor %v, want 3", l.factor)
	}
	slow := l.Send(healthy, bandwidth)
	if want := healthy.Add(3*vtime.Second + 3*vtime.Millisecond); slow != want {
		t.Fatalf("degraded send done %v, want %v", slow, want)
	}
	// Restoring health (factor clamps below 1) returns to the smooth rate.
	l.Degrade(0)
	restored := l.Send(slow, bandwidth)
	if want := slow.Add(vtime.Second + vtime.Millisecond); restored != want {
		t.Fatalf("restored send done %v, want %v", restored, want)
	}
}

func TestFullDuplexIndependence(t *testing.T) {
	l, err := New(Config{RTT: 2 * vtime.Nanosecond})
	if err != nil {
		t.Fatal(err)
	}
	l.Send(0, bandwidth)
	// The receive direction is idle: a simultaneous Recv is not queued
	// behind the Send.
	done := l.Recv(0, bandwidth)
	if done != vtime.Time(vtime.Second+vtime.Nanosecond) {
		t.Fatalf("recv done %v, want ~1s", done)
	}
}
