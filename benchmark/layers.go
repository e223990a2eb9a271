package main

// perLayer lists every per-layer metric with its unit, in report order.
// A metric whose layer is not on a workload's path (chain.* off the fleet,
// engine.* and src.* on it, netblock.* on the direct workload) reads 0
// there. BENCHMARK.json carries the same list; a test keeps them in step.
var perLayer = []struct{ name, unit string }{
	{"netblock.self_us_mean", "us"},
	{"netblock.self_us_p50", "us"},
	{"netblock.server_us_mean", "us"},
	{"netblock.errors", "count"},
	{"engine.do_us_mean", "us"},
	{"engine.do_us_p50", "us"},
	{"engine.serial_us_mean", "us"},
	{"engine.handoff_us_mean", "us"},
	{"src.hit_ratio", "ratio"},
	{"src.io_amp", "ratio"},
	{"src.gc_copy_bytes_per_op", "B/op"},
	{"src.destage_bytes_per_op", "B/op"},
	{"src.fill_bytes_per_op", "B/op"},
	{"src.ssd_flushes_per_kop", "1/kop"},
	{"chain.head_us_mean", "us"},
	{"chain.local_us_mean", "us"},
	{"chain.forward_us_mean", "us"},
	{"chain.forwards_per_write", "count"},
	{"chain.forward_failed", "count"},
	{"fleet.failovers", "count"},
	{"fleet.refetches", "count"},
	{"proc.allocs_per_op", "1/op"},
	{"proc.alloc_bytes_per_op", "B/op"},
	{"proc.gc_cycles", "count"},
	{"proc.gc_pause_ms", "ms"},
	{"proc.user_cpu_us_per_op", "us"},
	{"proc.sys_cpu_us_per_op", "us"},
	{"proc.invol_ctx_per_kop", "1/kop"},
	{"proc.minor_faults_per_kop", "1/kop"},
	{"client.read_p50_us", "us"},
	{"client.read_p95_us", "us"},
	{"client.write_p50_us", "us"},
	{"client.write_p95_us", "us"},
	{"client.p99_us", "us"},
	{"client.p999_us", "us"},
	{"client.max_us", "us"},
	{"client.stall_ops_per_k", "1/kop"},
	{"trace.overhead_ratio", "ratio"},
	{"trace.matched_ratio", "ratio"},
}

// spanMetrics attributes the traced ops' time to layers. spans must be
// sorted (sortSpans) with par from parents. For every client.call root it
// takes the served span — the root's direct child, backend.call on the
// engine stack, the head node's chain.head on the fleet — and:
//
//	netblock.self = client.call − what its children cover (roots with none
//	                — the direct workload's windows — have no netblock in them)
//	engine.do     = backend.call
//	chain.head    = the head's chain.head; chain.local its chain.local child
//	chain.forward = head − local, writes only (reads never leave the head)
//
// matched is the share of non-root spans nested under a client.call.
func spanMetrics(spans []span, par []int, m map[string]float64) {
	var self, do, head, local, forward []uint32
	var nonRoot, matched int
	for i := 0; i < len(spans); {
		j := i + 1
		for j < len(spans) && spans[j].op == spans[i].op {
			j++
		}
		root := spans[i]
		rooted := root.name == spClient && root.op >= 0
		if rooted && j > i+1 {
			self = append(self, uint32(selfTime(root, spans[i+1:j])))
		}
		for k := i; k < j; k++ {
			s := spans[k]
			if s.name == spClient {
				continue
			}
			nonRoot++
			if !rooted || par[k] < 0 {
				continue
			}
			matched++
			if par[k] != i {
				continue
			}
			switch s.name {
			case spBackend:
				do = append(do, uint32(s.dur()))
			case spChainHead:
				head = append(head, uint32(s.dur()))
				for c := k + 1; c < j; c++ {
					if par[c] == k && spans[c].name == spChainLocal {
						local = append(local, uint32(spans[c].dur()))
						if s.write {
							forward = append(forward, uint32(s.dur()-spans[c].dur()))
						}
					}
				}
			}
		}
		i = j
	}
	m["netblock.self_us_mean"] = mean(self) / 1e3
	m["netblock.self_us_p50"] = summarize(self, 1).P50
	m["engine.do_us_mean"] = mean(do) / 1e3
	m["engine.do_us_p50"] = summarize(do, 1).P50
	m["chain.head_us_mean"] = mean(head) / 1e3
	m["chain.local_us_mean"] = mean(local) / 1e3
	m["chain.forward_us_mean"] = mean(forward) / 1e3
	if nonRoot > 0 {
		m["trace.matched_ratio"] = float64(matched) / float64(nonRoot)
	}
}
