package bench

import (
	"errors"
	"fmt"
	"sort"

	"srccache/internal/blockdev"
	"srccache/internal/vtime"
)

// Open-loop replay: requests arrive at recorded timestamps regardless of
// completions (the arrival process of a real trace), so response time
// includes queueing behind a saturated device. The closed-loop Run models
// FIO and the paper's as-fast-as-possible replayer; this mode models
// timestamp-faithful replay.

// TimedRequest is one arrival.
type TimedRequest struct {
	At  vtime.Time
	Req blockdev.Request
}

// OpenLoopOptions configures a replay.
type OpenLoopOptions struct {
	// Speedup divides inter-arrival gaps (2 = replay twice as fast);
	// default 1.
	Speedup float64
}

// RunOpenLoop replays the arrivals in timestamp order and returns the
// results, with response time measured from each request's (scaled)
// arrival instant.
func RunOpenLoop(sys System, arrivals []TimedRequest, opt OpenLoopOptions) (*Result, error) {
	if len(arrivals) == 0 {
		return nil, errors.New("bench: no arrivals")
	}
	if opt.Speedup == 0 {
		opt.Speedup = 1
	}
	if opt.Speedup < 0 {
		return nil, fmt.Errorf("bench: negative speedup %v", opt.Speedup)
	}
	if !sort.SliceIsSorted(arrivals, func(i, j int) bool { return arrivals[i].At < arrivals[j].At }) {
		return nil, errors.New("bench: arrivals not in timestamp order")
	}

	base := arrivals[0].At
	res := &Result{}
	for _, a := range arrivals {
		at := vtime.Time(float64(a.At.Sub(base)) / opt.Speedup)
		done, err := sys.Submit(at, a.Req)
		if err != nil {
			return res, fmt.Errorf("bench: %v at %v: %w", a.Req, at, err)
		}
		res.count(a.Req)
		res.Latency.Observe(done.Sub(at))
		if done > res.End {
			res.End = done
		}
	}
	return res, nil
}
