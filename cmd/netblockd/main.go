// Command netblockd serves an in-memory volume over the netblock protocol
// — the repository's miniature iSCSI-target stand-in, used by the netstore
// example and usable as a shared scratch block device.
//
// Usage:
//
//	netblockd -addr 127.0.0.1:8700 -size 268435456
//	netblockd -addr 127.0.0.1:8700 -size 268435456 -shards 8
//	netblockd -addr 127.0.0.1:8700 -size 16777216 \
//	    -node a -ring "a=127.0.0.1:8700,b=127.0.0.1:8701,c=127.0.0.1:8702" \
//	    -replicas 2 -range-bytes 1048576
//
// With -shards N the volume is served by the concurrent engine: the LBA
// space is partitioned across N src.Cache shards, each behind its own
// lock, and a connection's goroutine runs its request under the shard's
// lock, instead of one flat in-memory volume behind a lock. -shards 0 (the
// default) keeps the flat volume.
//
// With -ring the daemon joins a replicated fleet: the volume is placed on a
// consistent-hash ring shared by every listed node, and each write this
// node serves is chain-forwarded to the next owner of its range before the
// reply — so a fleet client writing to a range's head lands the data on
// every reachable replica. -node names this daemon's ring identity; -epoch
// is the ring version advertised to pinging clients.
//
// With -debug-addr the daemon also serves, on that address only, the
// standard library's /debug/vars and /debug/pprof/. It is off by default;
// bind it to loopback. In /debug/vars, "netblock_ops" holds the per-op
// request counts, refusals and service times of netblock.Server.OpStats.
// Under -shards, "src_cache" holds the cache counters summed over the
// shards with their hit ratio and I/O amplification, and "shards" holds
// each shard's src.State: Utilization against UMax, Groups, FreeGroups,
// ActiveGroup and NextSegment, Dirty- and CleanBufferedPages, CachedPages,
// WastedSlots, RebuildColumn (-1 when idle) with RebuildRemaining of
// RebuildTotal segments, each column's Down flag and charged Errors, and
// the shard's Repair stats and Counters.
//
// SIGINT or SIGTERM drains gracefully: the listener closes, in-flight
// requests get -drain to finish, and idle connections are dropped. In
// fleet mode the daemon first deregisters: for one -drain window it keeps
// serving while pings advertise the drain flag (and epoch pushes are
// refused), so a supervisor classifies the planned restart as a departure
// rather than a fail-stop.
package main

import (
	"expvar"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	_ "net/http/pprof" // /debug/pprof/ on http.DefaultServeMux, served only under -debug-addr
	"os"
	"os/signal"
	"strings"
	"sync/atomic"
	"syscall"
	"time"

	"srccache/internal/bench"
	"srccache/internal/cluster"
	"srccache/internal/cluster/fleet"
	"srccache/internal/engine"
	"srccache/internal/netblock"
	"srccache/internal/src"
)

func main() {
	stop := make(chan struct{})
	go func() {
		sig := make(chan os.Signal, 1)
		signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
		<-sig
		close(stop)
	}()
	if err := run(os.Args[1:], os.Stdout, stop, nil); err != nil {
		fmt.Fprintln(os.Stderr, "netblockd:", err)
		os.Exit(1)
	}
}

// debugServer is the server whose counters /debug/vars shows. expvar's
// registry is process-wide and takes a name once, while tests call run
// repeatedly, so the variable is published once and reads whichever server
// is current.
var debugServer atomic.Pointer[netblock.Server]

// debugEngine is the engine whose cache state /debug/vars shows, nil when
// the current server has a flat volume behind it.
var debugEngine atomic.Pointer[engine.Engine]

func init() {
	expvar.Publish("src_cache", expvar.Func(func() any {
		// The same formulas as the benchmark's src.hit_ratio and
		// src.io_amp, so a figure read off a daemon compares with a
		// benchmark run. Both are 0 until there is traffic to divide by.
		type cacheVars struct {
			bench.Counters
			HitRatio float64     `json:"hit_ratio"`
			IOAmp    float64     `json:"io_amp"`
			Shards   []src.State `json:"shards"`
		}
		eng := debugEngine.Load()
		if eng == nil {
			return struct{}{}
		}
		states, err := eng.States(nil)
		if err != nil {
			return struct{}{} // closed: the drain outlives the engine
		}
		var c bench.Counters
		for _, st := range states {
			c.Add(st.Counters)
		}
		v := cacheVars{Counters: c, HitRatio: c.HitRatio(), Shards: states}
		if host := c.ReadBytes + c.WriteBytes; host > 0 {
			v.IOAmp = float64(c.FillBytes+c.GCCopyBytes+c.ParityBytes+c.MetadataBytes+c.WriteBytes) / float64(host)
		}
		return v
	}))
	expvar.Publish("netblock_ops", expvar.Func(func() any {
		type opVars struct {
			Count   int64   `json:"count"`
			Errors  int64   `json:"errors"`
			TotalUs float64 `json:"total_us"`
			MeanUs  float64 `json:"mean_us"`
			MaxUs   float64 `json:"max_us"`
		}
		us := func(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
		ops := map[string]opVars{}
		if srv := debugServer.Load(); srv != nil {
			for _, s := range srv.OpStats() {
				ops[s.Op] = opVars{s.Count, s.Errors, us(s.Total), us(s.Total) / float64(s.Count), us(s.Max)}
			}
		}
		return ops
	}))
}

// serveDebug serves http.DefaultServeMux (expvar's /debug/vars and pprof) on
// addr until the returned stop function is called.
func serveDebug(addr string) (bound net.Addr, stop func(), err error) {
	lis, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, nil, fmt.Errorf("debug listener: %w", err)
	}
	hs := &http.Server{Handler: http.DefaultServeMux}
	done := make(chan struct{})
	go func() {
		defer close(done)
		_ = hs.Serve(lis) // always http.ErrServerClosed: only stop ends it
	}()
	return lis.Addr(), func() { _ = hs.Close(); <-done }, nil
}

// parseRing turns "id=addr,id=addr,..." into a member list.
func parseRing(spec string) ([]cluster.Member, error) {
	var members []cluster.Member
	for _, part := range strings.Split(spec, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		id, addr, ok := strings.Cut(part, "=")
		if !ok || id == "" || addr == "" {
			return nil, fmt.Errorf("ring entry %q is not id=addr", part)
		}
		members = append(members, cluster.Member{ID: id, Addr: addr})
	}
	if len(members) == 0 {
		return nil, fmt.Errorf("ring spec %q lists no members", spec)
	}
	return members, nil
}

// run serves until stop closes; the bound address is sent on ready (if
// non-nil) once listening.
func run(args []string, stdout io.Writer, stop <-chan struct{}, ready chan<- net.Addr) error {
	fs := flag.NewFlagSet("netblockd", flag.ContinueOnError)
	var (
		addr    = fs.String("addr", "127.0.0.1:8700", "listen address")
		size    = fs.Int64("size", 256<<20, "volume size in bytes")
		shards  = fs.Int("shards", 0, "serve through the concurrent engine with this many cache shards (0 = flat volume)")
		idle    = fs.Duration("idle-timeout", 2*time.Minute, "drop connections idle this long (0 = never)")
		drain   = fs.Duration("drain", time.Second, "shutdown grace for in-flight requests")
		node    = fs.String("node", "", "this node's ring identity (requires -ring)")
		ringStr = fs.String("ring", "", `fleet membership as "id=addr,id=addr,..." (requires -node)`)
		reps    = fs.Int("replicas", 2, "fleet replication factor")
		rb      = fs.Int64("range-bytes", 1<<20, "fleet placement-range size in bytes")
		epoch   = fs.Uint64("epoch", 0, "ring epoch advertised to pinging clients (fleet mode defaults to 1)")
		debug   = fs.String("debug-addr", "", "serve /debug/vars (expvar: per-op counters, cache counters and per-shard cache state under -shards) and /debug/pprof/ on this address (empty = off)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if (*node == "") != (*ringStr == "") {
		return fmt.Errorf("-node and -ring must be given together")
	}

	var (
		backend netblock.Backend
		backing string
		eng     *engine.Engine
	)
	if *shards > 0 {
		if *size%int64(*shards) != 0 {
			return fmt.Errorf("size %d does not divide into %d shards", *size, *shards)
		}
		build, err := engine.MemShardBuilder(engine.ShardSpec{
			ShardBytes: *size / int64(*shards),
		})
		if err != nil {
			return err
		}
		// 1 MiB routing stripes: coarse enough that client-sized requests
		// rarely straddle shards, fine enough that small volumes still
		// split. Requires size/shards to be a 1 MiB multiple.
		eng, err = engine.New(engine.Options{Shards: *shards, StripePages: 256, Payload: true}, build)
		if err != nil {
			return err
		}
		backend = eng
		backing = fmt.Sprintf("engine, %d shards", *shards)
	} else {
		var err error
		backend, err = netblock.MemBackend(*size)
		if err != nil {
			return err
		}
		backing = "flat volume"
	}
	cleanup := func() {
		if eng != nil {
			eng.Close()
		}
	}

	var chain *fleet.ChainBackend
	if *ringStr != "" {
		members, err := parseRing(*ringStr)
		if err != nil {
			cleanup()
			return err
		}
		if *rb <= 0 || *size%*rb != 0 {
			cleanup()
			return fmt.Errorf("size %d does not divide into %d-byte ranges", *size, *rb)
		}
		ring, err := cluster.NewRing(*reps, int(*size / *rb), *rb, members)
		if err != nil {
			cleanup()
			return err
		}
		if _, ok := ring.Member(*node); !ok {
			cleanup()
			return fmt.Errorf("node %q is not in the ring", *node)
		}
		chain, err = fleet.NewChainBackend(backend, *node, ring, netblock.ClientOptions{
			DialTimeout: 2 * time.Second,
			Timeout:     10 * time.Second,
		})
		if err != nil {
			cleanup()
			return err
		}
		backend = chain
		backing = fmt.Sprintf("%s; fleet node %s of %d, %d-way", backing, *node, len(members), *reps)
		if *epoch == 0 {
			*epoch = 1
		}
	}

	srv, err := netblock.NewServerWith(backend)
	if err != nil {
		cleanup()
		return err
	}
	srv.SetEpoch(*epoch)
	srv.IdleTimeout = *idle
	srv.DrainGrace = *drain
	if *debug != "" {
		dbound, stopDebug, err := serveDebug(*debug)
		if err != nil {
			cleanup()
			return err
		}
		debugServer.Store(srv)
		debugEngine.Store(eng)
		defer stopDebug() // up through the drain, which is worth watching
		fmt.Fprintf(stdout, "netblockd: debug on http://%s/debug/vars and /debug/pprof/\n", dbound)
	}
	bound, err := srv.Listen(*addr)
	if err != nil {
		cleanup()
		return err
	}
	fmt.Fprintf(stdout, "netblockd: serving %d bytes (%s) on %s\n", *size, backing, bound)
	if ready != nil {
		ready <- bound
	}
	<-stop
	if chain != nil {
		// Fleet mode deregisters before it disappears: BeginDrain makes
		// every ping advertise the drain flag (and refuses new epochs), and
		// the grace window keeps serving long enough for a pinging
		// supervisor to observe it — so a planned restart is classified as
		// a departure, not a fail-stop, and triggers no quarantine/repair
		// cycle. Standalone servers have no supervisor to notify.
		fmt.Fprintln(stdout, "netblockd: draining (fleet deregister)")
		srv.BeginDrain()
		time.Sleep(*drain)
	}
	fmt.Fprintln(stdout, "netblockd: shutting down")
	err = srv.Close()
	if chain != nil {
		if cerr := chain.Close(); err == nil {
			err = cerr
		}
	}
	if eng != nil {
		if cerr := eng.Close(); err == nil {
			err = cerr
		}
	}
	return err
}
