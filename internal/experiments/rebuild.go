package experiments

import (
	"fmt"

	"srccache/internal/blockdev"
	"srccache/internal/src"
	"srccache/internal/ssd"
	"srccache/internal/vtime"
)

// AblationRebuild measures the online rebuild path (§4.3 made operational):
// one SSD fails after a healthy warm-up pass, a fresh device replaces it,
// and a second pass runs with the rebuild walker interleaved one segment per
// completed request. Reported per group: healthy throughput, throughput
// while rebuilding, and MTTR — the virtual time from replacement until the
// last segment column is reconstructed and the completion barrier commits.
func AblationRebuild(opts Options) ([]*Table, error) {
	o := opts.normalize()
	t := &Table{
		ID:      "Ablation A6",
		Title:   "Online rebuild after SSD replacement (PC): MB/s healthy -> rebuilding, MTTR",
		Columns: []string{"Group", "Healthy MB/s", "Rebuilding MB/s", "MTTR (s)", "Segments"},
		Notes: []string{
			"one rebuild step per completed foreground request;",
			"MTTR spans replacement to the completion barrier's flush",
		},
	}
	groups := groupNames()
	results, err := gridCells(o, "ablation-rebuild", len(groups), 1,
		func(r, c int) string { return groups[r] },
		func(r, c int) (rebuildRun, error) {
			run, err := rebuildGroupRun(o, groups[r])
			if err != nil {
				return rebuildRun{}, fmt.Errorf("ablation rebuild %s: %w", groups[r], err)
			}
			return run, nil
		})
	if err != nil {
		return nil, err
	}
	for r, g := range groups {
		res := results[r][0]
		t.Rows = append(t.Rows, []string{
			g, f1(res.healthy), f1(res.rebuilding),
			f2(res.mttr.Seconds()), fmt.Sprintf("%d", res.segments),
		})
	}
	return []*Table{t}, nil
}

type rebuildRun struct {
	healthy, rebuilding float64
	mttr                vtime.Duration
	segments            int64
}

// rebuildGroupRun warms the cache with a healthy pass, fails column 0,
// installs a fresh device, and reruns the group while driving RebuildStep
// after each completed request. If foreground traffic ends before the
// rebuild converges, the remaining steps run back-to-back — both phases
// count toward MTTR.
func rebuildGroupRun(o Options, group string) (rebuildRun, error) {
	span, err := groupSpan(group, o)
	if err != nil {
		return rebuildRun{}, err
	}
	cache, faults, err := faultedSRC(o, span, src.PC)
	if err != nil {
		return rebuildRun{}, err
	}
	run1, err := runGroup(cache, group, o)
	if err != nil {
		return rebuildRun{}, err
	}
	faults[0].Fail()
	fresh, err := ssd.New(o.ssdConfig("ssd0r", o.cachePerSSD()))
	if err != nil {
		return rebuildRun{}, err
	}
	replaceStart := run1.End
	start, err := cache.ReplaceSSD(replaceStart, 0, blockdev.NewFaultPlan(fresh))
	if err != nil {
		return rebuildRun{}, err
	}
	var converged vtime.Time
	step := func(at vtime.Time) (vtime.Time, error) {
		if converged != 0 {
			return at, nil
		}
		t, pending, err := cache.RebuildStep(at)
		if err != nil {
			return at, err
		}
		if !pending {
			converged = t
		}
		return t, nil
	}
	run2, err := runGroupAt(cache, group, o, start, 1, step)
	if err != nil {
		return rebuildRun{}, err
	}
	// Short workloads can finish before the walker does: drain the rest.
	for at := run2.End; converged == 0; {
		t, err := step(at)
		if err != nil {
			return rebuildRun{}, err
		}
		at = t
	}
	return rebuildRun{
		healthy:    run1.MBps,
		rebuilding: run2.MBps,
		mttr:       converged.Sub(replaceStart),
		segments:   cache.State(nil).Repair.RebuiltSegments,
	}, nil
}
