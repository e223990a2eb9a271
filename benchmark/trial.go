package main

import (
	"bytes"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"syscall"
	"time"

	"srccache/internal/bench"
	"srccache/internal/blockdev"
	"srccache/internal/engine"
	"srccache/internal/netblock"
	"srccache/internal/vtime"
)

// Env says where and how a result was produced; every JSON result carries
// one.
type Env struct {
	NProc      int    `json:"nproc"`      // the machine's
	CPUs       []int  `json:"trial_cpus"` // the ones the trial may run on: one, when a run started it
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	GitHead    string `json:"git_head"`
	Seed       int64  `json:"seed"`
	Seconds    int    `json:"seconds"`
	Trials     int    `json:"trials"`
	Clients    int    `json:"clients"`
	WarmOps    int    `json:"warm_ops"`
	TimedOps   int    `json:"timed_ops"`
	// Congestion is the TCP congestion control the trial's sockets ran
	// under: reno in a namespace of the trial's own, else the system's.
	Congestion string `json:"tcp_congestion,omitempty"`
}

func newEnv(s spec, seed int64, seconds int) Env {
	head := "unknown" // a checkout that is not a git repository
	if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		head = strings.TrimSpace(string(out))
		// The change that adds the benchmark is measured before it is
		// committed: say so, so the numbers are tied to HEAD plus a diff.
		if out, err := exec.Command("git", "status", "--porcelain", "--untracked-files=no").Output(); err == nil && len(out) > 0 {
			head += "+uncommitted"
		}
	}
	cpus, _ := allowedCPUs() // nil when the kernel will not say
	return Env{
		NProc: onlineCPUs(), CPUs: cpus, GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
		GitHead: head, Seed: seed, Seconds: seconds, Trials: trials, Clients: s.clients,
		WarmOps: s.warmOps, TimedOps: s.timedOps(seconds),
	}
}

// trialConfig is one trial's input. tamper, set only by tests, decorates
// the innermost backend to plant a violation.
type trialConfig struct {
	spec     spec
	seed     int64
	warmOps  int
	timedOps int
	trace    bool
	outDir   string
	tamper   func(netblock.Backend) netblock.Backend
}

// TrialResult is what one trial process prints and the parent reads back.
type TrialResult struct {
	Env       Env     `json:"env"`
	Workload  string  `json:"workload"`
	Traced    bool    `json:"traced"`
	Attempted int64   `json:"attempted"`
	Failed    int64   `json:"failed"`
	Failure   string  `json:"first_failure,omitempty"`
	Samples   int     `json:"latency_samples"`
	TimedS    float64 `json:"timed_s"`
	// EndToEnd holds the six gated metrics over the trial's whole timed
	// region (a run reports their medians over its trials); Blocks the four
	// of them that are also measured per tenth of the region, as a
	// diagnostic; Layers the per-layer ones this trial could compute
	// (span-derived ones only when Traced).
	EndToEnd map[string]float64   `json:"end_to_end"`
	Blocks   map[string][]float64 `json:"blocks"`
	Layers   map[string]float64   `json:"layers"`
	// Src is the src counter delta over the timed region, compared across
	// trials on the single-threaded workload.
	Src bench.Counters `json:"src"`
	// Violations lists predictions about the layers that did not hold.
	Violations []string `json:"violations,omitempty"`
	TraceFile  string   `json:"trace_file,omitempty"`
}

// snapshot is every cumulative counter the trial differences over the
// timed region.
type snapshot struct {
	ru                   syscall.Rusage
	ms                   runtime.MemStats
	src                  bench.Counters
	srvOps, srvErrs      int64
	srvTime              time.Duration
	fwdOK, fwdFailed     int64
	fleetWrites          int64
	failovers, refetches int64
}

func (st *stack) snapshot() (snapshot, error) {
	var s snapshot
	var err error
	if s.src, err = st.counters(); err != nil {
		return s, err
	}
	for _, srv := range st.servers {
		for _, o := range srv.OpStats() {
			s.srvErrs += o.Errors
			if o.Op == "read" || o.Op == "write" {
				s.srvOps += o.Count
				s.srvTime += o.Total
			}
		}
	}
	for _, c := range st.chains {
		ok, failed := c.Forwards()
		s.fwdOK += ok
		s.fwdFailed += failed
	}
	for _, f := range st.fleets {
		fs := f.Stats()
		s.fleetWrites += fs.Writes
		s.failovers += fs.Failovers
		s.refetches += fs.Refetches
	}
	runtime.ReadMemStats(&s.ms)
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &s.ru); err != nil {
		return s, err
	}
	return s, nil
}

func tvMicros(tv syscall.Timeval) float64 { return float64(tv.Sec)*1e6 + float64(tv.Usec) }

func ratio(num, den int64) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}

// measure turns two snapshots around a timed region of ops operations into
// the end-to-end metrics (less setup_s and the percentiles) and the
// counter-derived layer metrics. cpu_us_per_op is the whole process — the
// stack under test and the load generator in it.
func measure(a, b snapshot, wall time.Duration, ops int, r *TrialResult) {
	n := float64(ops)
	user := tvMicros(b.ru.Utime) - tvMicros(a.ru.Utime)
	sys := tvMicros(b.ru.Stime) - tvMicros(a.ru.Stime)
	r.TimedS = wall.Seconds()
	r.EndToEnd["ops_per_s"] = n / wall.Seconds()
	r.EndToEnd["cpu_us_per_op"] = (user + sys) / n
	r.EndToEnd["peak_rss_mb"] = float64(b.ru.Maxrss) / 1024 // Linux reports KiB

	c := bench.Counters{
		Reads: b.src.Reads - a.src.Reads, Writes: b.src.Writes - a.src.Writes,
		ReadBytes: b.src.ReadBytes - a.src.ReadBytes, WriteBytes: b.src.WriteBytes - a.src.WriteBytes,
		ReadHits: b.src.ReadHits - a.src.ReadHits, ReadHitBytes: b.src.ReadHitBytes - a.src.ReadHitBytes,
		FillBytes: b.src.FillBytes - a.src.FillBytes, DestageBytes: b.src.DestageBytes - a.src.DestageBytes,
		GCCopyBytes: b.src.GCCopyBytes - a.src.GCCopyBytes, GCSegments: b.src.GCSegments - a.src.GCSegments,
		MetadataBytes: b.src.MetadataBytes - a.src.MetadataBytes, ParityBytes: b.src.ParityBytes - a.src.ParityBytes,
		SSDFlushes: b.src.SSDFlushes - a.src.SSDFlushes,
	}
	r.Src = c
	l := r.Layers
	l["src.hit_ratio"] = c.HitRatio()
	l["src.io_amp"] = ratio(c.FillBytes+c.GCCopyBytes+c.ParityBytes+c.MetadataBytes+c.WriteBytes, c.ReadBytes+c.WriteBytes)
	l["src.gc_copy_bytes_per_op"] = float64(c.GCCopyBytes) / n
	l["src.destage_bytes_per_op"] = float64(c.DestageBytes) / n
	l["src.fill_bytes_per_op"] = float64(c.FillBytes) / n
	l["src.ssd_flushes_per_kop"] = 1e3 * float64(c.SSDFlushes) / n

	l["netblock.server_us_mean"] = ratio(int64(b.srvTime-a.srvTime), b.srvOps-a.srvOps) / 1e3
	l["netblock.errors"] = float64(b.srvErrs - a.srvErrs)
	l["chain.forwards_per_write"] = ratio(b.fwdOK-a.fwdOK, b.fleetWrites-a.fleetWrites)
	l["chain.forward_failed"] = float64(b.fwdFailed - a.fwdFailed)
	l["fleet.failovers"] = float64(b.failovers - a.failovers)
	l["fleet.refetches"] = float64(b.refetches - a.refetches)

	l["proc.allocs_per_op"] = float64(b.ms.Mallocs-a.ms.Mallocs) / n
	l["proc.alloc_bytes_per_op"] = float64(b.ms.TotalAlloc-a.ms.TotalAlloc) / n
	l["proc.gc_cycles"] = float64(b.ms.NumGC - a.ms.NumGC)
	l["proc.gc_pause_ms"] = float64(b.ms.PauseTotalNs-a.ms.PauseTotalNs) / 1e6
	l["proc.user_cpu_us_per_op"] = user / n
	l["proc.sys_cpu_us_per_op"] = sys / n
	l["proc.invol_ctx_per_kop"] = 1e3 * float64(b.ru.Nivcsw-a.ru.Nivcsw) / n
	l["proc.minor_faults_per_kop"] = 1e3 * float64(b.ru.Minflt-a.ru.Minflt) / n
}

// latencyMetrics fills the percentile metrics from the timed ops' samples.
// scale is the number of ops one sample covers (1, or window on the direct
// workload, whose sample is a window's wall time).
func latencyMetrics(all, reads, writes []uint32, scale float64, r *TrialResult) {
	a := summarize(all, scale)
	r.Samples = a.N
	r.EndToEnd["p50_us"] = a.P50
	r.EndToEnd["p95_us"] = a.P95
	l := r.Layers
	l["client.p99_us"] = a.P99
	l["client.p999_us"] = a.P999
	l["client.max_us"] = a.Max
	l["client.stall_ops_per_k"] = a.StallPerK
	rd, wr := summarize(reads, scale), summarize(writes, scale)
	l["client.read_p50_us"], l["client.read_p95_us"] = rd.P50, rd.P95
	l["client.write_p50_us"], l["client.write_p95_us"] = wr.P50, wr.P95
}

// client is one closed-loop initiator: one connection, one op in flight, a
// share of the span nobody else writes, and therefore an exact model of
// what every read must return.
type client struct {
	id        int
	spec      spec
	tgt       target
	rec       *recorder // nil when not tracing
	first     int64     // first slot of the share
	ver       []uint32  // model: current version of each slot of the share
	buf       []byte
	attempted int64
	failed    int64
	failure   string
}

func (c *client) fail(format string, args ...any) {
	c.failed++
	if c.failure == "" {
		c.failure = fmt.Sprintf("client %d: ", c.id) + fmt.Sprintf(format, args...)
	}
}

// do issues one op and checks it, returning the call's latency in
// nanoseconds. id ≥ 0 makes it a traced root span.
func (c *client) do(req blockdev.Request, id int64) int64 {
	off := req.Off
	v := &c.ver[off/c.spec.reqBytes-c.first]
	write := req.Op == blockdev.OpWrite
	if write {
		fillPattern(c.buf, off, *v+1)
	} else {
		// Whatever the last op left in buf must not pass for this read.
		for p := 0; p < len(c.buf); p += int(blockdev.PageSize) {
			c.buf[p] ^= 0xff
		}
	}
	if id >= 0 {
		c.rec.inflight[c.id].Store(id)
	}
	var err error
	t0 := time.Now()
	if write {
		err = c.tgt.WriteAt(c.buf, off)
	} else {
		err = c.tgt.ReadAt(c.buf, off)
	}
	d := int64(time.Since(t0))
	if id >= 0 {
		c.rec.inflight[c.id].Store(-1)
		start := int64(t0.Sub(c.rec.epoch))
		c.rec.add(span{name: spClient, write: write, node: int8(c.id), op: id, start: start, end: start + d})
	}
	c.attempted++
	switch {
	case err != nil:
		c.fail("op at %d: %v", off, err)
	case write:
		*v++
	case !checkPattern(c.buf, off, *v):
		c.fail("read at %d does not match version %d of the model", off, *v)
	}
	return d
}

// fill writes the client's share of the whole volume at version 0, through
// the path under test.
func (c *client) fill() {
	buf := make([]byte, fillChunk)
	share := c.spec.volume / int64(c.spec.clients)
	for off := int64(c.id) * share; off < int64(c.id+1)*share; off += fillChunk {
		fillPattern(buf, off, 0)
		c.attempted++
		if err := c.tgt.WriteAt(buf, off); err != nil {
			c.fail("fill at %d: %v", off, err)
		}
	}
}

// sweep reads every stride-th slot of the share in order. Before the
// warm-up (stride 1, when the span is smaller than the volume) it brings
// the whole hot set into the cache, which random draws alone would leave
// to chance; after the timed region it checks a fixed sample of slots the
// stream may not have read back.
func (c *client) sweep(stride int) {
	for i := 0; i < len(c.ver); i += stride {
		c.do(blockdev.Request{Op: blockdev.OpRead, Off: (c.first + int64(i)) * c.spec.reqBytes}, -1)
	}
}

func clampNs(d int64) uint32 {
	if d > math.MaxUint32 {
		return math.MaxUint32
	}
	return uint32(d)
}

func each(clients []*client, f func(c *client)) {
	var wg sync.WaitGroup
	for _, c := range clients {
		wg.Add(1)
		go func(c *client) {
			defer wg.Done()
			f(c)
		}(c)
	}
	wg.Wait()
}

// verifySlots is how many slots per client the post-run sweep reads.
const verifySlots = 256

// runTrial runs one trial of a workload in this process. start is when the
// process began: set-up is everything from there to the first timed op.
func runTrial(cfg trialConfig, start time.Time) (TrialResult, error) {
	r := TrialResult{Workload: cfg.spec.name, Traced: cfg.trace,
		EndToEnd: map[string]float64{}, Layers: map[string]float64{}}
	var err error
	if cfg.spec.kind == direct {
		err = runDirect(cfg, start, &r)
	} else {
		err = runServed(cfg, start, &r)
	}
	return r, err
}

func runServed(cfg trialConfig, start time.Time, r *TrialResult) error {
	s := cfg.spec
	warm, timed := cfg.warmOps/s.clients, cfg.timedOps/s.clients
	streams := make([][]blockdev.Request, s.clients) // warm-up then timed
	for c := range streams {
		w, err := s.stream(warmSeed, c, warm)
		if err != nil {
			return err
		}
		t, err := s.stream(cfg.seed, c, timed)
		if err != nil {
			return err
		}
		streams[c] = append(w, t...)
	}

	var rec *recorder
	if cfg.trace {
		// At most seven spans per op: the root, and on a fleet write a
		// chain.head and a chain.local on each of three nodes.
		rec = newRecorder(start, s.clients, s.span/int64(s.clients), 7*cfg.timedOps)
	}
	var wrap wrapFn
	if cfg.trace || cfg.tamper != nil {
		wrap = func(b netblock.Backend, name spanName, node int) netblock.Backend {
			if cfg.tamper != nil && name != spChainHead {
				b = cfg.tamper(b)
			}
			if rec != nil {
				b = &tracedBackend{Backend: b, rec: rec, name: name, node: int8(node)}
			}
			return b
		}
	}
	build := buildServed
	if s.kind == replicated {
		build = buildFleet
	}
	st, err := build(s, wrap)
	if err != nil {
		return err
	}
	defer st.close()

	clients := make([]*client, s.clients)
	slots := s.span / s.reqBytes / int64(s.clients)
	for i := range clients {
		tgt, err := st.dial()
		if err != nil {
			return err
		}
		defer tgt.Close()
		clients[i] = &client{id: i, spec: s, tgt: tgt, rec: rec, first: int64(i) * slots,
			ver: make([]uint32, slots), buf: make([]byte, s.reqBytes)}
	}

	each(clients, (*client).fill)
	each(clients, func(c *client) {
		if s.span < s.volume {
			c.sweep(1)
		}
		for _, o := range streams[c.id][:warm] {
			c.do(o, -1)
		}
	})

	lat := make([][]uint32, s.clients)
	for i := range lat {
		lat[i] = make([]uint32, timed)
	}
	mk := newMarker(s.clients)
	perBlock := max(1, timed/blocks)
	before, err := st.snapshot()
	if err != nil {
		return err
	}
	t0 := time.Now()
	r.EndToEnd["setup_s"] = t0.Sub(start).Seconds()
	each(clients, func(c *client) {
		for i, o := range streams[c.id][warm:] {
			if c.id == 0 && i%perBlock == 0 && i/perBlock < blocks {
				mk.take()
			}
			id := int64(-1)
			if rec != nil {
				id = int64(i*s.clients + c.id)
			}
			lat[c.id][i] = clampNs(c.do(o, id))
			mk.progress[c.id].n.Store(int64(i + 1))
		}
		if c.id == 0 {
			mk.take()
		}
	})
	wall := time.Since(t0)
	after, err := st.snapshot()
	if err != nil {
		return err
	}
	if mk.err != nil {
		return mk.err
	}
	measure(before, after, wall, cfg.timedOps, r)
	r.Blocks = mk.blockMetrics(lat, 1)

	var all, reads, writes []uint32
	for c, ls := range lat {
		all = append(all, ls...)
		for i, o := range streams[c][warm:] {
			if o.Op == blockdev.OpWrite {
				writes = append(writes, ls[i])
			} else {
				reads = append(reads, ls[i])
			}
		}
	}
	latencyMetrics(all, reads, writes, 1, r)

	each(clients, func(c *client) { c.sweep(max(1, len(c.ver)/verifySlots)) })
	for _, c := range clients {
		r.Attempted += c.attempted
		r.Failed += c.failed
		if r.Failure == "" {
			r.Failure = c.failure
		}
	}
	if s.kind == replicated {
		if err := compareReplicas(st, r); err != nil {
			return err
		}
	}
	if rec != nil {
		if err := traceReport(cfg, rec, r); err != nil {
			return err
		}
		if s.kind == served {
			us, err := serialReplay(s, streams, warm)
			if err != nil {
				return err
			}
			r.Layers["engine.serial_us_mean"] = us
			r.Layers["engine.handoff_us_mean"] = r.Layers["engine.do_us_mean"] - us
		}
	}
	return nil
}

// replicaSample is how many ranges compareReplicas reads from every node.
const replicaSample = 16

// compareReplicas dials each fleet node directly and compares a fixed
// sample of ranges byte for byte across all replicas: what the chain
// forwarded must be what the head stored. One comparison is one attempted
// op.
func compareReplicas(st *stack, r *TrialResult) error {
	var nodes []*netblock.Client
	for _, m := range st.ring.Members() {
		c, err := netblock.DialOptions(m.Addr, clientOpts)
		if err != nil {
			return err
		}
		defer c.Close()
		nodes = append(nodes, c)
	}
	want, got := make([]byte, fillChunk), make([]byte, fillChunk)
	for i := 0; i < replicaSample; i++ {
		rng := int64(i) * int64(st.ring.Ranges) / replicaSample
		for off := rng * rangeBytes; off < (rng+1)*rangeBytes; off += fillChunk {
			if _, err := nodes[0].ReadAt(want, off); err != nil {
				return err
			}
			for n, c := range nodes[1:] {
				r.Attempted++
				if _, err := c.ReadAt(got, off); err != nil {
					return err
				}
				if !bytes.Equal(want, got) {
					r.Failed++
					if r.Failure == "" {
						r.Failure = fmt.Sprintf("replicas 0 and %d differ in [%d,%d)", n+1, off, off+fillChunk)
					}
				}
			}
		}
	}
	return nil
}

// traceReport turns the recorded spans into layer metrics and writes them
// out as Chrome trace-event JSON.
func traceReport(cfg trialConfig, rec *recorder, r *TrialResult) error {
	spans, dropped := rec.recorded()
	if dropped > 0 {
		r.Violations = append(r.Violations, fmt.Sprintf("%d spans did not fit the recorder", dropped))
	}
	sortSpans(spans)
	par := parents(spans)
	spanMetrics(spans, par, r.Layers)
	if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
		return err
	}
	r.TraceFile = filepath.Join(cfg.outDir, cfg.spec.name+".trace.json")
	return writeChromeTrace(r.TraceFile, spans, par)
}

// serialReplay replays the trial's op streams, clients interleaved, through
// an un-started twin engine's Serial view: the same routing, splitting and
// src work with no queue hop and no payload copy. It returns the mean
// microseconds per timed op; engine.do minus this is the hand-off.
func serialReplay(s spec, streams [][]blockdev.Request, warm int) (float64, error) {
	twin, err := newEngine(s.volume, false)
	if err != nil {
		return 0, err
	}
	ser := twin.Serial()
	submit := func(req blockdev.Request) error {
		_, err := ser.Submit(0, req)
		return err
	}
	for off := int64(0); off < s.volume; off += fillChunk {
		if err := submit(blockdev.Request{Op: blockdev.OpWrite, Off: off, Len: fillChunk}); err != nil {
			return 0, err
		}
	}
	if s.span < s.volume {
		for off := int64(0); off < s.span; off += s.reqBytes {
			if err := submit(blockdev.Request{Op: blockdev.OpRead, Off: off, Len: s.reqBytes}); err != nil {
				return 0, err
			}
		}
	}
	replay := func(from, to int) error {
		for i := from; i < to; i++ {
			for _, reqs := range streams {
				if err := submit(reqs[i]); err != nil {
					return err
				}
			}
		}
		return nil
	}
	if err := replay(0, warm); err != nil {
		return 0, err
	}
	n := len(streams[0])
	t0 := time.Now()
	if err := replay(warm, n); err != nil {
		return 0, err
	}
	return float64(time.Since(t0).Microseconds()) / float64((n-warm)*len(streams)), nil
}

// runDirect is the cache layer's floor: one goroutine calling
// src.Cache.Submit on a cache of one served shard's geometry. The cache
// carries no payload, so the output check is on its counters: every op
// issued must be counted, as a read or a write, with its bytes.
func runDirect(cfg trialConfig, start time.Time, r *TrialResult) error {
	s := cfg.spec
	warmup, err := s.stream(warmSeed, 0, cfg.warmOps)
	if err != nil {
		return err
	}
	timed, err := s.stream(cfg.seed, 0, cfg.timedOps)
	if err != nil {
		return err
	}
	build, err := engine.MemShardBuilder(engine.ShardSpec{ShardBytes: s.volume})
	if err != nil {
		return err
	}
	cache, err := build(0)
	if err != nil {
		return err
	}
	st := &stack{cache: cache}
	var rec *recorder
	if cfg.trace {
		rec = newRecorder(start, 1, s.span, cfg.timedOps/window)
	}

	var now vtime.Time
	submit := func(req blockdev.Request) {
		r.Attempted++
		done, err := cache.Submit(now, req)
		if err != nil {
			r.Failed++
			if r.Failure == "" {
				r.Failure = fmt.Sprintf("%v: %v", req, err)
			}
		}
		now = vtime.Max(now, done)
	}
	for off := int64(0); off < s.volume; off += fillChunk {
		submit(blockdev.Request{Op: blockdev.OpWrite, Off: off, Len: fillChunk})
	}
	for _, req := range warmup {
		submit(req)
	}

	lat := make([]uint32, 0, len(timed)/window)
	mk := newMarker(1)
	perBlock := max(1, len(timed)/window/blocks) * window
	before, err := st.snapshot()
	if err != nil {
		return err
	}
	t0 := time.Now()
	r.EndToEnd["setup_s"] = t0.Sub(start).Seconds()
	for w := 0; w+window <= len(timed); w += window {
		if w%perBlock == 0 && w/perBlock < blocks {
			mk.take()
		}
		w0 := time.Now()
		for _, req := range timed[w : w+window] {
			submit(req)
		}
		d := int64(time.Since(w0))
		lat = append(lat, clampNs(d))
		mk.progress[0].n.Store(int64(w + window))
		if rec != nil {
			ws := int64(w0.Sub(start))
			rec.add(span{name: spClient, op: int64(w / window), start: ws, end: ws + d})
		}
	}
	mk.take()
	wall := time.Since(t0)
	after, err := st.snapshot()
	if err != nil {
		return err
	}
	if mk.err != nil {
		return mk.err
	}
	measure(before, after, wall, len(timed), r)
	r.Blocks = mk.blockMetrics([][]uint32{lat}, window)
	latencyMetrics(lat, nil, nil, window, r)

	want := int64(len(timed))
	if got := r.Src.Reads + r.Src.Writes; got != want {
		r.Failed += max(got-want, want-got)
		r.Failure = fmt.Sprintf("cache counted %d requests for %d issued", got, want)
	}
	if got := r.Src.ReadBytes + r.Src.WriteBytes; got != want*s.reqBytes {
		r.Failed++
		r.Failure = fmt.Sprintf("cache counted %d bytes for %d issued", got, want*s.reqBytes)
	}
	if rec != nil {
		return traceReport(cfg, rec, r)
	}
	return nil
}

// predictions checks what the layers must look like on a workload if the
// benchmark measures what it says it does. A violation fails the run.
func predictions(s spec, r *TrialResult) {
	l := r.Layers
	expect := func(ok bool, format string, args ...any) {
		if !ok {
			r.Violations = append(r.Violations, fmt.Sprintf(format, args...))
		}
	}
	if s.kind == served && s.readFraction == 1 {
		expect(l["src.hit_ratio"] == 1, "hot set must hit: src.hit_ratio = %v", l["src.hit_ratio"])
		expect(r.Src.GCCopyBytes == 0 && r.Src.DestageBytes == 0,
			"hit-only reads must move nothing: GC copy %d B, destage %d B", r.Src.GCCopyBytes, r.Src.DestageBytes)
	}
	if s.kind == replicated {
		expect(l["chain.forwards_per_write"] == 2, "R = 3 write must forward twice: %v", l["chain.forwards_per_write"])
		expect(l["chain.forward_failed"] == 0 && l["fleet.failovers"] == 0 && l["fleet.refetches"] == 0,
			"healthy fleet: %v failed forwards, %v failovers, %v refetches",
			l["chain.forward_failed"], l["fleet.failovers"], l["fleet.refetches"])
	}
	if s.kind != direct {
		expect(l["netblock.errors"] == 0, "server answered %v requests with an error", l["netblock.errors"])
		if r.Traced {
			expect(l["trace.matched_ratio"] >= 0.99, "only %v of backend spans have a client.call parent", l["trace.matched_ratio"])
		}
	}
}
