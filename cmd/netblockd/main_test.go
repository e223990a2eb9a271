package main

import (
	"bytes"
	"encoding/json"
	"math"
	"net"
	"net/http"
	"strings"
	"testing"
	"time"

	"srccache/internal/cluster"
	"srccache/internal/netblock"
)

func TestServeAndShutdown(t *testing.T) {
	var out bytes.Buffer
	stop := make(chan struct{})
	ready := make(chan net.Addr, 1)
	done := make(chan error, 1)
	go func() {
		done <- run([]string{"-addr", "127.0.0.1:0", "-size", "1048576",
			"-idle-timeout", "30s", "-drain", "100ms"}, &out, stop, ready)
	}()
	addr := <-ready

	cli, err := netblock.Dial(addr.String())
	if err != nil {
		t.Fatal(err)
	}
	if cli.Size() != 1<<20 {
		t.Fatalf("size %d", cli.Size())
	}
	if _, err := cli.WriteAt([]byte("daemon"), 0); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, 6)
	if _, err := cli.ReadAt(got, 0); err != nil {
		t.Fatal(err)
	}
	if string(got) != "daemon" {
		t.Fatalf("read %q", got)
	}
	// A standalone volume belongs to no ring: it advertises epoch 0.
	if info, err := cli.Ping(); err != nil || info.Epoch != 0 {
		t.Fatalf("ping %+v, %v; want epoch 0", info, err)
	}
	cli.Close()

	close(stop)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "serving") || !strings.Contains(out.String(), "shutting down") {
		t.Fatalf("output:\n%s", out.String())
	}
}

// TestServeEngineMode serves through the sharded engine and exercises the
// full client surface — size, write, read, trim, flush — over the wire.
func TestServeEngineMode(t *testing.T) {
	var out bytes.Buffer
	stop := make(chan struct{})
	ready := make(chan net.Addr, 1)
	done := make(chan error, 1)
	go func() {
		done <- run([]string{"-addr", "127.0.0.1:0", "-size", "16777216",
			"-shards", "4", "-drain", "100ms"}, &out, stop, ready)
	}()
	addr := <-ready

	cli, err := netblock.Dial(addr.String())
	if err != nil {
		t.Fatal(err)
	}
	if cli.Size() != 16<<20 {
		t.Fatalf("size %d", cli.Size())
	}
	// A write spanning the 1 MiB shard-stripe boundary must round-trip.
	span := make([]byte, 8192)
	for i := range span {
		span[i] = byte(i)
	}
	boundary := int64(1<<20 - 4096)
	if _, err := cli.WriteAt(span, boundary); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(span))
	if _, err := cli.ReadAt(got, boundary); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, span) {
		t.Fatal("stripe-crossing write diverges on readback")
	}
	if err := cli.Trim(boundary, int64(len(span))); err != nil {
		t.Fatal(err)
	}
	if _, err := cli.ReadAt(got, boundary); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, make([]byte, len(span))) {
		t.Fatal("trimmed range not zeroed")
	}
	if err := cli.Flush(); err != nil {
		t.Fatal(err)
	}
	cli.Close()

	close(stop)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "engine, 4 shards") {
		t.Fatalf("output:\n%s", out.String())
	}
}

// TestServeFleetMode boots a two-daemon fleet on loopback and checks that a
// write to one node chain-forwards to the other: reading the same offset
// from either daemon returns the same bytes.
func TestServeFleetMode(t *testing.T) {
	const (
		size = int64(1 << 20)
		rb   = "65536"
	)
	// Reserve two loopback ports so the ring spec can be written before
	// either daemon starts (the bootstrap a config file provides in a real
	// deployment).
	var addrs [2]string
	for i := range addrs {
		lis, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		addrs[i] = lis.Addr().String()
		lis.Close()
	}
	ring := "a=" + addrs[0] + ",b=" + addrs[1]

	stops := [2]chan struct{}{make(chan struct{}), make(chan struct{})}
	dones := [2]chan error{make(chan error, 1), make(chan error, 1)}
	var outs [2]bytes.Buffer
	for i, id := range []string{"a", "b"} {
		i, id := i, id
		ready := make(chan net.Addr, 1)
		go func() {
			dones[i] <- run([]string{"-addr", addrs[i], "-size", "1048576",
				"-node", id, "-ring", ring, "-replicas", "2", "-range-bytes", rb,
				"-drain", "100ms"}, &outs[i], stops[i], ready)
		}()
		<-ready
	}

	// Forwarding is positional — only a chain head pushes down-chain — so
	// address the write to range 0's head and read it back from the tail.
	placement, err := cluster.NewRing(2, int(size)/65536, 65536, []cluster.Member{
		{ID: "a", Addr: addrs[0]}, {ID: "b", Addr: addrs[1]},
	})
	if err != nil {
		t.Fatal(err)
	}
	owners := placement.Owners(0)
	head, _ := placement.Member(owners[0])
	tail, _ := placement.Member(owners[1])

	cliHead, err := netblock.Dial(head.Addr)
	if err != nil {
		t.Fatal(err)
	}
	if cliHead.Size() != size {
		t.Fatalf("size %d", cliHead.Size())
	}
	if _, err := cliHead.WriteAt([]byte("replicated"), 4096); err != nil {
		t.Fatal(err)
	}
	cliTail, err := netblock.Dial(tail.Addr)
	if err != nil {
		t.Fatal(err)
	}
	got := make([]byte, 10)
	if _, err := cliTail.ReadAt(got, 4096); err != nil {
		t.Fatal(err)
	}
	if string(got) != "replicated" {
		t.Fatalf("replica read %q", got)
	}
	// Fleet mode advertises a nonzero ring epoch in the ping handshake.
	info, err := cliTail.Ping()
	if err != nil {
		t.Fatal(err)
	}
	if info.Epoch != 1 {
		t.Fatalf("epoch %d, want 1", info.Epoch)
	}
	cliHead.Close()
	cliTail.Close()

	for i := range stops {
		close(stops[i])
		if err := <-dones[i]; err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(outs[i].String(), "fleet node") {
			t.Fatalf("daemon %d output:\n%s", i, outs[i].String())
		}
	}
}

// TestFleetModeDrainsBeforeExit is the planned-restart regression test: a
// SIGTERM'd fleet daemon must deregister — keep serving for the drain
// window while pings advertise the drain flag — before its listener
// closes, so a supervisor classifies the restart as a departure instead of
// a fail-stop.
func TestFleetModeDrainsBeforeExit(t *testing.T) {
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := lis.Addr().String()
	lis.Close()

	var out bytes.Buffer
	stop := make(chan struct{})
	done := make(chan error, 1)
	ready := make(chan net.Addr, 1)
	go func() {
		done <- run([]string{"-addr", addr, "-size", "1048576",
			"-node", "a", "-ring", "a=" + addr, "-replicas", "1",
			"-range-bytes", "65536", "-drain", "400ms"}, &out, stop, ready)
	}()
	<-ready

	cli, err := netblock.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	info, err := cli.Ping()
	if err != nil || info.Draining {
		t.Fatalf("pre-shutdown ping %+v, %v", info, err)
	}

	close(stop)
	// During the drain window the daemon must still answer, now with the
	// drain flag up — the deregistration a supervisor watches for.
	deadline := time.Now().Add(2 * time.Second)
	for {
		info, err = cli.Ping()
		if err != nil {
			t.Fatalf("ping during drain window failed before flag observed: %v", err)
		}
		if info.Draining {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("drain flag never advertised")
		}
		time.Sleep(5 * time.Millisecond)
	}
	// Data service stays up through the same window.
	if _, err := cli.WriteAt([]byte("drain"), 0); err != nil {
		t.Fatalf("write during drain window: %v", err)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "draining (fleet deregister)") {
		t.Fatalf("output:\n%s", out.String())
	}
}

func TestBadArgs(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-size", "0"}, &out, nil, nil); err == nil {
		t.Fatal("zero size accepted")
	}
	if err := run([]string{"-bogus"}, &out, nil, nil); err == nil {
		t.Fatal("bad flag accepted")
	}
	if err := run([]string{"-addr", "999.999.999.999:99999"}, &out, nil, nil); err == nil {
		t.Fatal("bad address accepted")
	}
	if err := run([]string{"-size", "1048576", "-shards", "3"}, &out, nil, nil); err == nil {
		t.Fatal("indivisible shard split accepted")
	}
}

// TestDebugAddrPublishesOpStats: with -debug-addr an operator reads the
// per-op counters of the running daemon from /debug/vars, and pprof answers
// beside it; without the flag nothing listens.
func TestDebugAddrPublishesOpStats(t *testing.T) {
	var out bytes.Buffer
	stop := make(chan struct{})
	ready := make(chan net.Addr, 1)
	done := make(chan error, 1)
	go func() {
		done <- run([]string{"-addr", "127.0.0.1:0", "-size", "1048576",
			"-debug-addr", "127.0.0.1:0", "-drain", "100ms"}, &out, stop, ready)
	}()
	addr := <-ready
	_, rest, ok := strings.Cut(out.String(), "debug on ")
	if !ok {
		t.Fatalf("no debug address announced:\n%s", out.String())
	}
	varsURL, _, _ := strings.Cut(rest, " ")

	cli, err := netblock.Dial(addr.String())
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	for i := 0; i < 3; i++ {
		if _, err := cli.ReadAt(make([]byte, 512), 0); err != nil {
			t.Fatal(err)
		}
	}

	resp, err := http.Get(varsURL)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var vars struct {
		Ops map[string]struct {
			Count, Errors int64
			MeanUs        float64 `json:"mean_us"`
		} `json:"netblock_ops"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&vars); err != nil {
		t.Fatal(err)
	}
	if r := vars.Ops["read"]; r.Count != 3 || r.Errors != 0 || r.MeanUs <= 0 {
		t.Fatalf("netblock_ops = %+v, want 3 clean reads with a service time", vars.Ops)
	}
	if vars.Ops["ping"].Count != 1 {
		t.Fatalf("netblock_ops = %+v, want the dial's one ping", vars.Ops)
	}
	prof, err := http.Get(strings.Replace(varsURL, "/debug/vars", "/debug/pprof/cmdline", 1))
	if err != nil {
		t.Fatal(err)
	}
	prof.Body.Close()
	if prof.StatusCode != http.StatusOK {
		t.Fatalf("pprof status %d", prof.StatusCode)
	}

	close(stop)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if _, err := http.Get(varsURL); err == nil {
		t.Fatal("debug endpoint outlived the daemon")
	}
}

// TestDebugAddrPublishesCacheCounters: a daemon serving an engine also
// publishes src_cache — the shard caches' counters summed, with the hit
// ratio and I/O amplification the benchmark derives from them — so the
// figure that hid the segment-buffer ratchet (an io_amp below 1) can be read
// off a running daemon, and so can the rate of Segment Group reclaims.
// Beside them each shard's state shows what drives reclamation: free
// groups, utilization against U_MAX, buffered pages and rebuild progress. A
// flat-volume daemon publishes an empty object.
func TestDebugAddrPublishesCacheCounters(t *testing.T) {
	type shardVars struct {
		Utilization, UMax                             *float64
		Groups, FreeGroups, DirtyBufferedPages        int
		RebuildColumn, RebuildRemaining, RebuildTotal int
		Counters                                      struct{ Writes int64 }
	}
	type cacheVars struct {
		Writes, WriteBytes, Reads, ReadHits, GroupReclaims int64
		HitRatio                                           *float64    `json:"hit_ratio"`
		IOAmp                                              *float64    `json:"io_amp"`
		Shards                                             []shardVars `json:"shards"`
	}
	// serve starts a 2 MiB daemon and returns a client, a reader of its
	// src_cache and a stop function.
	serve := func(args ...string) (*netblock.Client, func() (cacheVars, string), func()) {
		var out bytes.Buffer
		stop := make(chan struct{})
		ready := make(chan net.Addr, 1)
		done := make(chan error, 1)
		go func() {
			done <- run(append([]string{"-addr", "127.0.0.1:0", "-size", "2097152",
				"-debug-addr", "127.0.0.1:0", "-drain", "100ms"}, args...), &out, stop, ready)
		}()
		addr := <-ready
		_, rest, _ := strings.Cut(out.String(), "debug on ")
		varsURL, _, _ := strings.Cut(rest, " ")

		cli, err := netblock.Dial(addr.String())
		if err != nil {
			t.Fatal(err)
		}
		fetch := func() (cacheVars, string) {
			resp, err := http.Get(varsURL)
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			var raw struct {
				Cache json.RawMessage `json:"src_cache"`
			}
			if err := json.NewDecoder(resp.Body).Decode(&raw); err != nil {
				t.Fatal(err)
			}
			var vars cacheVars
			if err := json.Unmarshal(raw.Cache, &vars); err != nil {
				t.Fatalf("src_cache = %s: %v", raw.Cache, err)
			}
			return vars, string(raw.Cache)
		}
		return cli, fetch, func() {
			cli.Close()
			close(stop)
			if err := <-done; err != nil {
				t.Fatal(err)
			}
		}
	}

	cli, fetch, stop := serve("-shards", "2")
	page := make([]byte, 4096)
	for i := int64(0); i < 8; i++ {
		// Both sides of the 1 MiB stripe boundary: both shards count.
		if _, err := cli.WriteAt(page, (1<<20)-4*4096+i*4096); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := cli.ReadAt(page, 1<<20); err != nil {
		t.Fatal(err)
	}
	vars, raw := fetch()
	if vars.Writes != 8 || vars.WriteBytes != 8*4096 || vars.Reads != 1 || vars.ReadHits != 1 {
		t.Fatalf("src_cache = %s, want 8 page writes and 1 read hit summed over both shards", raw)
	}
	if vars.HitRatio == nil || *vars.HitRatio != 1 {
		t.Fatalf("src_cache = %s, want hit_ratio 1", raw)
	}
	// Nothing but the host's own writes has reached the cache yet: eight
	// buffered pages over nine pages of host traffic.
	if vars.IOAmp == nil || math.Abs(*vars.IOAmp-8.0/9) > 1e-9 {
		t.Fatalf("src_cache = %s, want io_amp = 8/9", raw)
	}
	if vars.GroupReclaims != 0 {
		t.Fatalf("src_cache = %s, want no reclaim yet", raw)
	}
	// Four pages of each shard wait in its dirty buffer; no segment is
	// written, so no group has left the free list and utilization is 0.
	if len(vars.Shards) != 2 {
		t.Fatalf("src_cache = %s, want two shards", raw)
	}
	for i, sh := range vars.Shards {
		if sh.Counters.Writes != 4 || sh.DirtyBufferedPages != 4 || sh.Groups < 2 || sh.FreeGroups != sh.Groups-1 ||
			sh.Utilization == nil || *sh.Utilization != 0 || sh.UMax == nil || *sh.UMax != 0.9 ||
			sh.RebuildColumn != -1 || sh.RebuildRemaining != 0 || sh.RebuildTotal != 0 {
			t.Fatalf("shard %d state in src_cache = %s, want 4 buffered writes, every group free, utilization 0 of U_MAX 0.9, no rebuild", i, raw)
		}
	}
	// Rewrite the volume until a shard's cache fills and reclaims a group.
	chunk := make([]byte, 64<<10)
	for pass := 0; vars.GroupReclaims == 0; pass++ {
		if pass == 100 {
			t.Fatalf("src_cache = %s after %d passes over the volume, want a reclaim", raw, pass)
		}
		for off := int64(0); off < 2<<20; off += int64(len(chunk)) {
			if _, err := cli.WriteAt(chunk, off); err != nil {
				t.Fatal(err)
			}
		}
		vars, raw = fetch()
	}
	for _, sh := range vars.Shards {
		if sh.FreeGroups >= sh.Groups-1 || *sh.Utilization <= 0 || *sh.Utilization > 1 {
			t.Fatalf("src_cache = %s after a reclaim, want groups in use and utilization in (0, 1] on each shard", raw)
		}
	}
	stop()

	_, fetch, stop = serve()
	if _, raw := fetch(); raw != "{}" {
		t.Fatalf("flat volume published src_cache = %s, want {}", raw)
	}
	stop()
}
