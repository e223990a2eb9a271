package main

import (
	"bytes"
	"encoding/json"
	"os"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"srccache/internal/netblock"
)

func TestPercentileAndMedian(t *testing.T) {
	s := []uint32{10, 20, 30, 40, 50, 60, 70, 80, 90, 100}
	for _, c := range []struct {
		p    float64
		want uint32
	}{{0.5, 50}, {0.95, 100}, {0.9, 90}, {0.91, 100}, {0.01, 10}, {1, 100}} {
		if got := percentile(s, c.p); got != c.want {
			t.Errorf("percentile(%v) = %d, want %d", c.p, got, c.want)
		}
	}
	if got := percentile(nil, 0.5); got != 0 {
		t.Errorf("percentile of nothing = %d", got)
	}
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("odd median = %v", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("even median = %v", got)
	}
	in := []float64{9, 1, 5}
	median(in)
	if !reflect.DeepEqual(in, []float64{9, 1, 5}) {
		t.Errorf("median reordered its input: %v", in)
	}

	// Unsorted nanoseconds in, microseconds per op out, the count with them.
	l := summarize([]uint32{3000, 1000, 2_000_000, 2000}, 1)
	if l.N != 4 || l.P50 != 2 || l.Max != 2000 || l.StallPerK != 250 {
		t.Errorf("summarize = %+v", l)
	}
	// A sample that covers 4 ops: per-op values, and no stall at 0.5 ms per op.
	l = summarize([]uint32{4000, 8000, 2_000_000}, 4)
	if l.N != 3 || l.P50 != 2 || l.StallPerK != 0 {
		t.Errorf("summarize at scale 4 = %+v", l)
	}
}

func TestStreamsArePure(t *testing.T) {
	s := specs[1]
	s.clients = 2
	a, err := s.stream(1, 0, 500)
	if err != nil {
		t.Fatal(err)
	}
	b, _ := s.stream(1, 0, 500)
	if !reflect.DeepEqual(a, b) {
		t.Error("same (workload, seed, client) gave different streams")
	}
	share := s.span / int64(s.clients)
	for _, r := range a {
		if r.Off < 0 || r.Off+r.Len > share || r.Len != s.reqBytes || r.Off%s.reqBytes != 0 {
			t.Fatalf("client 0 request %v outside its share [0,%d)", r, share)
		}
	}
	seed2, _ := s.stream(2, 0, 500)
	client1, _ := s.stream(1, 1, 500)
	other, _ := specs[0].stream(1, 0, 500)
	warm, _ := s.stream(warmSeed, 0, 500)
	for name, o := range map[string]any{"seed": seed2, "client": client1, "workload": other, "warm-up": warm} {
		if reflect.DeepEqual(a, o) {
			t.Errorf("changing the %s did not change the stream", name)
		}
	}
	for _, r := range client1 {
		if r.Off < share || r.Off+r.Len > 2*share {
			t.Fatalf("client 1 request %v outside its share", r)
		}
	}
	z, _ := specs[3].stream(1, 0, 20000)
	hot := 0
	for _, r := range z {
		if r.Off < 16*4096 {
			hot++
		}
	}
	if hot < 4000 {
		t.Errorf("Zipf stream: %d of 20000 requests on the 16 hottest pages", hot)
	}
}

func TestPatternCatchesEveryKindOfWrongPage(t *testing.T) {
	buf := make([]byte, 3*4096)
	fillPattern(buf, 8192, 5)
	if !checkPattern(buf, 8192, 5) {
		t.Fatal("pattern does not match itself")
	}
	if checkPattern(buf, 4096, 5) || checkPattern(buf, 8192, 4) {
		t.Error("pattern matches at another offset or version")
	}
	shifted := append(append([]byte{}, buf[8:]...), buf[:8]...)
	if checkPattern(shifted, 8192, 5) {
		t.Error("pattern matches when shifted by a word")
	}
	buf[2*4096+77] ^= 1
	if checkPattern(buf, 8192, 5) {
		t.Error("pattern matches with a bit flipped")
	}
	if checkPattern(make([]byte, 4096), 0, 0) {
		t.Error("a never-written page passes for version 0")
	}
}

func TestSelfTimeSubtractsTheUnionOfChildren(t *testing.T) {
	parent := span{start: 100, end: 200}
	for _, c := range []struct {
		name     string
		children []span
		want     int64
	}{
		{"none", nil, 100},
		{"one", []span{{start: 120, end: 150}}, 70},
		{"disjoint", []span{{start: 110, end: 120}, {start: 150, end: 170}}, 70},
		{"overlapping", []span{{start: 110, end: 150}, {start: 140, end: 160}}, 50},
		{"nested", []span{{start: 110, end: 190}, {start: 120, end: 130}}, 20},
		{"sticking out", []span{{start: 50, end: 120}, {start: 190, end: 300}}, 70},
	} {
		if got := selfTime(parent, c.children); got != c.want {
			t.Errorf("%s: self time %d, want %d", c.name, got, c.want)
		}
	}
}

// A fleet write as the decorators record it: the head's chain.head holds
// its chain.local and, through the forward, the next node's chain.head.
func TestSpanTreeAndLayerMetrics(t *testing.T) {
	spans := []span{
		{name: spChainLocal, write: true, node: 1, op: 7, start: 40_000, end: 41_000},
		{name: spClient, write: true, op: 7, start: 0, end: 100_000},
		{name: spChainHead, write: true, node: 1, op: 7, start: 35_000, end: 60_000},
		{name: spChainHead, write: true, node: 0, op: 7, start: 20_000, end: 80_000},
		{name: spChainLocal, write: true, node: 0, op: 7, start: 21_000, end: 23_000},
		{name: spClient, op: 8, start: 0, end: 30_000}, // a read on the other client
		{name: spChainHead, node: 2, op: 8, start: 10_000, end: 14_000},
		{name: spChainLocal, node: 2, op: 8, start: 11_000, end: 12_000},
		{name: spChainHead, node: 2, op: -1, start: 0, end: 5}, // nobody's
	}
	sortSpans(spans)
	par := parents(spans)
	var names []string
	for i, s := range spans {
		p := "-"
		if par[i] >= 0 {
			p = spanNames[spans[par[i]].name]
		}
		names = append(names, spanNames[s.name]+"<"+p)
	}
	want := "chain.head<- client.call<- chain.head<client.call chain.local<chain.head chain.head<chain.head chain.local<chain.head " +
		"client.call<- chain.head<client.call chain.local<chain.head"
	if got := strings.Join(names, " "); got != want {
		t.Fatalf("tree:\n got %s\nwant %s", got, want)
	}
	m := map[string]float64{}
	spanMetrics(spans, par, m)
	for k, want := range map[string]float64{
		"netblock.self_us_mean": (40 + 26) / 2.0, // 100−60 and 30−4
		"chain.head_us_mean":    (60 + 4) / 2.0,  // heads only, not the forwarded-to node
		"chain.local_us_mean":   (2 + 1) / 2.0,
		"chain.forward_us_mean": 58, // the write's head − local
		"trace.matched_ratio":   6.0 / 7,
	} {
		if got := m[k]; got < want-1e-9 || got > want+1e-9 {
			t.Errorf("%s = %v, want %v", k, got, want)
		}
	}
}

func toy(k kind) spec {
	s := spec{name: "toy", kind: k, volume: 8 * mib, span: 8 * mib, reqBytes: 4096, readFraction: 0.5, clients: 2}
	switch k {
	case served:
		// A hot set smaller than the volume, read only: exercises the sweep
		// and the hit-only predictions.
		s.span, s.readFraction = 2*mib, 1
	case direct:
		s.clients, s.zipf = 1, true
	}
	return s
}

func TestToyTrialsAreCorrectAndTraced(t *testing.T) {
	for _, k := range []kind{served, replicated, direct} {
		cfg := trialConfig{spec: toy(k), seed: 1, warmOps: 400, timedOps: 2 * window, trace: true, outDir: t.TempDir()}
		r, err := runTrial(cfg, time.Now())
		if err != nil {
			t.Fatal(err)
		}
		if r.Failed != 0 || r.Attempted < int64(cfg.timedOps) {
			t.Errorf("%s: %d of %d ops failed: %s", r.Workload, r.Failed, r.Attempted, r.Failure)
		}
		for _, m := range endToEnd {
			if r.EndToEnd[m.name] <= 0 {
				t.Errorf("%s: %s = %v", r.Workload, m.name, r.EndToEnd[m.name])
			}
		}
		if fi, err := os.Stat(r.TraceFile); err != nil || fi.Size() == 0 {
			t.Errorf("%s: span file: %v", r.Workload, err)
		}
		if k == direct {
			if r.Samples != 2 {
				t.Errorf("direct: %d window samples, want 2", r.Samples)
			}
			continue
		}
		if r.Samples != cfg.timedOps {
			t.Errorf("%s: %d latency samples for %d timed ops", r.Workload, r.Samples, cfg.timedOps)
		}
		l := r.Layers
		if l["trace.matched_ratio"] != 1 || l["netblock.self_us_mean"] <= 0 {
			t.Errorf("%s: matched %v, netblock self %v", r.Workload, l["trace.matched_ratio"], l["netblock.self_us_mean"])
		}
		if k == served && (l["engine.do_us_mean"] <= 0 || l["engine.serial_us_mean"] <= 0) {
			t.Errorf("served: engine.do %v, engine.serial %v", l["engine.do_us_mean"], l["engine.serial_us_mean"])
		}
		predictions(cfg.spec, &r)
		if len(r.Violations) > 0 {
			t.Errorf("%s: %v", r.Workload, r.Violations)
		}
	}
}

// flipper is the planted violation: a backend that hands back one wrong
// byte, once.
type flipper struct {
	netblock.Backend
	reads *atomic.Int64
}

func (f flipper) ReadAt(p []byte, off int64) error {
	err := f.Backend.ReadAt(p, off)
	if f.reads.Add(1) == 100 {
		p[len(p)/2] ^= 0x40
	}
	return err
}

func TestPlantedByteFlipFailsTheRun(t *testing.T) {
	for _, k := range []kind{served, replicated} {
		var reads atomic.Int64
		cfg := trialConfig{spec: toy(k), seed: 1, warmOps: 200, timedOps: 2000,
			tamper: func(b netblock.Backend) netblock.Backend { return flipper{b, &reads} }}
		r, err := runTrial(cfg, time.Now())
		if err != nil {
			t.Fatal(err)
		}
		if r.Failed != 1 || !strings.Contains(r.Failure, "does not match") {
			t.Errorf("kind %d: one flipped byte gave %d failed ops (%q)", k, r.Failed, r.Failure)
		}
	}
}

func TestTrialResultRoundTripsThroughJSON(t *testing.T) {
	in := TrialResult{
		Env:      newEnv(specs[0], 2, defaultSeconds),
		Workload: "hot-read-4k", Traced: true, Attempted: 12345, Failed: 1, Failure: "x", Samples: 99, TimedS: 5.5,
		EndToEnd:   map[string]float64{"p50_us": 28.725, "setup_s": 3.9957123},
		Layers:     map[string]float64{"src.hit_ratio": 1},
		Violations: []string{"v"}, TraceFile: "f",
	}
	in.Src.ReadHits = 7
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(in); err != nil {
		t.Fatal(err)
	}
	var out TrialResult
	if err := json.Unmarshal(buf.Bytes(), &out); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(in, out) {
		t.Errorf("round trip changed the result:\n in %+v\nout %+v", in, out)
	}
	if in.Env.TimedOps != specs[0].timedOps(defaultSeconds) || in.Env.Trials != trials || in.Env.GOMAXPROCS < 1 || in.Env.GoVersion == "" {
		t.Errorf("env block incomplete: %+v", in.Env)
	}
}

// The last line a run prints is the driver's contract; BENCHMARK.json must
// name exactly what the program reports.
func TestReportAndManifestAgree(t *testing.T) {
	var manifest struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(raw, &manifest); err != nil {
		t.Fatal(err)
	}
	if len(manifest.Workloads) != len(specs) || len(manifest.EndToEnd) != len(endToEnd) || len(manifest.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json lists %d workloads, %d end-to-end and %d per-layer metrics; the program has %d, %d and %d",
			len(manifest.Workloads), len(manifest.EndToEnd), len(manifest.PerLayer), len(specs), len(endToEnd), len(perLayer))
	}
	for i, w := range manifest.Workloads {
		if w.Name != specs[i].name {
			t.Errorf("workload %d: %q in BENCHMARK.json, %q in the program", i, w.Name, specs[i].name)
		}
	}
	for i, m := range manifest.EndToEnd {
		if e := endToEnd[i]; m.Name != e.name || m.Unit != e.unit || m.Better != e.better || m.Bound != e.bound {
			t.Errorf("end-to-end metric %d: %+v in BENCHMARK.json, %+v in the program", i, m, e)
		}
	}
	for i, m := range manifest.PerLayer {
		if p := perLayer[i]; m.Name != p.name || m.Unit != p.unit {
			t.Errorf("per-layer metric %d: %+v in BENCHMARK.json, %+v in the program", i, m, p)
		}
	}

	for _, traced := range []bool{false, true} {
		rep := Report{Workload: "hot-read-4k", Correct: true, Attempted: 10, Traced: traced,
			Metrics: map[string]float64{"p50_us": 1.5}, Trials: []TrialResult{{Samples: 3}}}
		var out bytes.Buffer
		if err := rep.print(&out); err != nil {
			t.Fatal(err)
		}
		lines := strings.Split(strings.TrimSpace(out.String()), "\n")
		var last map[string]json.RawMessage
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil {
			t.Fatal(err)
		}
		var metrics map[string]struct {
			Value *float64
			Unit  string
		}
		if err := json.Unmarshal(last["metrics"], &metrics); err != nil {
			t.Fatal(err)
		}
		want := len(endToEnd)
		if traced {
			want = len(perLayer)
		}
		if len(last) != 4 || len(metrics) != want {
			t.Errorf("traced %v: last line has %d keys and %d metrics, want 4 and %d", traced, len(last), len(metrics), want)
		}
		for name, m := range metrics {
			if m.Value == nil || m.Unit == "" {
				t.Errorf("metric %s printed without value or unit", name)
			}
		}
		if !traced && !strings.Contains(out.String(), "3 latency samples per trial") {
			t.Error("the sample count behind the percentiles is not printed")
		}
	}
}

// In a namespace that is not the trial's own (the test's: lo is up) nothing
// is changed and the system's congestion control is reported.
func TestSetupLoopbackLeavesALiveNamespaceAlone(t *testing.T) {
	before, err := os.ReadFile(congestionFile)
	if err != nil {
		t.Skip(err)
	}
	cc, err := setupLoopback()
	if err != nil {
		t.Fatal(err)
	}
	after, _ := os.ReadFile(congestionFile)
	if cc == "" || cc != strings.TrimSpace(string(before)) || !bytes.Equal(before, after) {
		t.Errorf("setupLoopback = %q with the system at %q before and %q after", cc, before, after)
	}
}

// One trial met a slow burst in most of its blocks; the run reports the
// median block of all trials, and the median trial where there are no blocks.
func TestRunReportsTheMedianBlock(t *testing.T) {
	trials := []TrialResult{
		{EndToEnd: map[string]float64{"p50_us": 17, "setup_s": 2.5}, Blocks: map[string][]float64{"p50_us": {17, 17, 18, 17}}},
		{EndToEnd: map[string]float64{"p50_us": 23, "setup_s": 3.5}, Blocks: map[string][]float64{"p50_us": {17, 24, 25, 24}}},
		{EndToEnd: map[string]float64{"p50_us": 17, "setup_s": 2.7}, Blocks: map[string][]float64{"p50_us": {16, 17, 17, 17}}},
	}
	if got := overTrials(trials, "p50_us"); got != 17 {
		t.Errorf("p50_us over the trials' blocks = %v, want 17", got)
	}
	if got := overTrials(trials, "setup_s"); got != 2.7 {
		t.Errorf("setup_s over the trials = %v, want 2.7", got)
	}
}

func TestBlockMetrics(t *testing.T) {
	// Two clients, two blocks. Client 1 runs behind client 0, so the second
	// block holds one op of client 0 and two of client 1.
	t0 := time.Unix(0, 0)
	m := &marker{marks: []mark{
		{at: t0, cpu: 100, done: []int64{0, 0}},
		{at: t0.Add(time.Millisecond), cpu: 160, done: []int64{2, 1}},
		{at: t0.Add(3 * time.Millisecond), cpu: 190, done: []int64{3, 3}},
	}}
	lat := [][]uint32{{1000, 3000, 9000}, {2000, 5000, 7000}}
	b := m.blockMetrics(lat, 1)
	want := map[string][]float64{
		"ops_per_s":     {3000, 1500},
		"cpu_us_per_op": {20, 10},
		"p50_us":        {2, 7},
		"p95_us":        {3, 9},
	}
	if !reflect.DeepEqual(b, want) {
		t.Errorf("block metrics:\n got %v\nwant %v", b, want)
	}
}
