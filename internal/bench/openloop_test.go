package bench

import (
	"testing"

	"srccache/internal/blockdev"
	"srccache/internal/vtime"
)

func arrivalsEvery(gap vtime.Duration, n int) []TimedRequest {
	out := make([]TimedRequest, n)
	for i := range out {
		out[i] = TimedRequest{
			At:  vtime.Time(int64(i) * int64(gap)),
			Req: blockdev.Request{Op: blockdev.OpWrite, Off: int64(i%8) * blockdev.PageSize, Len: blockdev.PageSize},
		}
	}
	return out
}

func TestOpenLoopUnderload(t *testing.T) {
	// Device serves in 1 ms; arrivals every 2 ms: no queueing, latency
	// equals service time.
	dev := blockdev.NewMemDevice(1<<20, vtime.Millisecond)
	res, err := RunOpenLoop(dev, arrivalsEvery(2*vtime.Millisecond, 50), OpenLoopOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Requests != 50 {
		t.Fatalf("requests %d", res.Requests)
	}
	if res.Latency.Max() != vtime.Millisecond {
		t.Fatalf("underload max latency %v, want service time", res.Latency.Max())
	}
}

func TestOpenLoopOverloadQueues(t *testing.T) {
	// Arrivals every 0.5 ms against a 1 ms device: the queue grows and
	// late requests see latency far above service time — the behaviour
	// closed-loop replay cannot exhibit.
	dev := blockdev.NewMemDevice(1<<20, vtime.Millisecond)
	res, err := RunOpenLoop(dev, arrivalsEvery(500*vtime.Microsecond, 100), OpenLoopOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Latency.Max() < 40*vtime.Millisecond {
		t.Fatalf("overload max latency %v, expected a long queue", res.Latency.Max())
	}
	if res.Latency.Percentile(99) <= res.Latency.Percentile(50) {
		t.Fatal("tail not above median under overload")
	}
}

func TestOpenLoopSpeedup(t *testing.T) {
	dev := blockdev.NewMemDevice(1<<20, vtime.Microsecond)
	slow, err := RunOpenLoop(dev, arrivalsEvery(2*vtime.Millisecond, 20), OpenLoopOptions{})
	if err != nil {
		t.Fatal(err)
	}
	dev2 := blockdev.NewMemDevice(1<<20, vtime.Microsecond)
	fast, err := RunOpenLoop(dev2, arrivalsEvery(2*vtime.Millisecond, 20), OpenLoopOptions{Speedup: 4})
	if err != nil {
		t.Fatal(err)
	}
	if !(fast.Makespan() < slow.Makespan()/2) {
		t.Fatalf("speedup 4 makespan %v vs %v", fast.Makespan(), slow.Makespan())
	}
	if fast.MBps() <= slow.MBps() {
		t.Fatal("speedup did not raise offered throughput")
	}
}

func TestOpenLoopValidation(t *testing.T) {
	dev := blockdev.NewMemDevice(1<<20, 0)
	if _, err := RunOpenLoop(dev, nil, OpenLoopOptions{}); err == nil {
		t.Fatal("accepted empty arrivals")
	}
	if _, err := RunOpenLoop(dev, arrivalsEvery(vtime.Millisecond, 5), OpenLoopOptions{Speedup: -1}); err == nil {
		t.Fatal("accepted negative speedup")
	}
	unsorted := arrivalsEvery(vtime.Millisecond, 3)
	unsorted[0], unsorted[2] = unsorted[2], unsorted[0]
	if _, err := RunOpenLoop(dev, unsorted, OpenLoopOptions{}); err == nil {
		t.Fatal("accepted unsorted arrivals")
	}
}
