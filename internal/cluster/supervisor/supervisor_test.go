package supervisor

// The supervisor tests run the full control loop against live netblock
// servers on loopback TCP: real dials, real pings, real repair streams.
// Tests drive Tick directly instead of Start's timer so every schedule is
// deterministic; nothing here sleeps to "let the supervisor notice".
//
// The headline property, asserted end to end in the lifecycle test: after
// a node fail-stops, the supervisor alone — no client-side orchestration —
// detects it, quarantines its copies, repairs them hash-verified once the
// node returns, and later rebalances a join through the three-epoch
// protocol, with every acked write still readable at the end.

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"srccache/internal/cluster"
	"srccache/internal/cluster/fleet"
	"srccache/internal/netblock"
)

const (
	tRanges     = 8
	tRangeBytes = int64(4096)
)

// Short timeouts keep detection fast on loopback without flaking: a dead
// listener refuses instantly, it never actually waits out DialTimeout.
func dialOpts() netblock.ClientOptions {
	return netblock.ClientOptions{DialTimeout: 500 * time.Millisecond, Timeout: time.Second}
}

// supNode is one live fleet member plus the in-process management push the
// supervisor installs placements through. The data/ping plane is TCP; only
// Push is in-process, standing in for the config channel a deployment
// would use.
type supNode struct {
	id   string
	addr string

	mu    sync.Mutex
	back  netblock.Backend
	chain *fleet.ChainBackend
	srv   *netblock.Server
	alive bool
	crash func() bool // kills the supervisor pushing to this node when true
}

func (n *supNode) push(p fleet.Placement) error {
	if n.crash != nil && n.crash() {
		panic(errCrash)
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	if !n.alive {
		return fmt.Errorf("node %s: down", n.id)
	}
	if n.srv.Draining() {
		return fmt.Errorf("node %s: draining", n.id)
	}
	if err := n.chain.Install(p); err != nil {
		return err
	}
	n.srv.SetEpoch(p.Table.Epoch)
	return nil
}

// errCrash is the panic a node's push raises to kill the supervisor
// mid-decision, the way a process dies: nothing after it runs.
var errCrash = errors.New("supervisor killed")

func (n *supNode) node() Node {
	return Node{Member: cluster.Member{ID: n.id, Addr: n.addr}, Push: n.push}
}

// kill fail-stops the node: listener gone, no drain, no goodbye.
func (n *supNode) kill(t *testing.T) {
	t.Helper()
	n.mu.Lock()
	defer n.mu.Unlock()
	if !n.alive {
		return
	}
	n.alive = false
	if err := n.srv.Close(); err != nil {
		t.Fatal(err)
	}
	n.chain.Close()
}

// restart brings the node back on its old address; wipe loses its data
// (fresh disk), otherwise it returns with the possibly stale copy it held
// at the kill. It boots unplaced — serving nothing, advertising epoch 0 —
// until the supervisor's push.
func (n *supNode) restart(t *testing.T, size int64, wipe bool) {
	t.Helper()
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.alive {
		t.Fatalf("node %s restarted while alive", n.id)
	}
	if wipe {
		back, err := netblock.MemBackend(size)
		if err != nil {
			t.Fatal(err)
		}
		n.back = back
	}
	chain, err := fleet.Boot(n.back, n.id, fleet.TCP(dialOpts()))
	if err != nil {
		t.Fatal(err)
	}
	srv, err := netblock.NewServerWith(chain)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := srv.Listen(n.addr); err != nil {
		t.Fatalf("rebind %s: %v", n.addr, err)
	}
	n.chain, n.srv, n.alive = chain, srv, true
	t.Cleanup(func() {
		srv.Close()
		chain.Close()
	})
}

func mkRing(t *testing.T, replicas int, members []cluster.Member) *cluster.Ring {
	t.Helper()
	r, err := cluster.NewRing(replicas, tRanges, tRangeBytes, members)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func startNode(t *testing.T, id string, ring *cluster.Ring) *supNode {
	t.Helper()
	back, err := netblock.MemBackend(ring.Size())
	if err != nil {
		t.Fatal(err)
	}
	chain, err := fleet.NewChainBackend(back, id, ring, dialOpts())
	if err != nil {
		t.Fatal(err)
	}
	srv, err := netblock.NewServerWith(chain)
	if err != nil {
		t.Fatal(err)
	}
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	n := &supNode{id: id, addr: addr.String(), back: back, chain: chain, srv: srv, alive: true}
	t.Cleanup(func() {
		n.mu.Lock()
		defer n.mu.Unlock()
		if n.alive {
			n.srv.Close()
			n.chain.Close()
		}
	})
	return n
}

// startCluster boots members as live servers (spares too), installs the
// bound-address ring, and builds a supervisor over all of them with a
// journal in dir. ringIDs names the initial placement; the rest register
// as spares.
func startCluster(t *testing.T, ringIDs, spareIDs []string, replicas int, cfg Config) (map[string]*supNode, *Supervisor) {
	t.Helper()
	var boot []cluster.Member
	for _, id := range append(append([]string{}, ringIDs...), spareIDs...) {
		boot = append(boot, cluster.Member{ID: id})
	}
	bootRing := mkRing(t, replicas, boot)
	nodes := make(map[string]*supNode)
	var members []cluster.Member
	for _, id := range ringIDs {
		n := startNode(t, id, bootRing)
		nodes[id] = n
		members = append(members, cluster.Member{ID: id, Addr: n.addr})
	}
	ring := mkRing(t, replicas, members)
	for _, id := range ringIDs {
		if err := nodes[id].chain.SetRing(ring); err != nil {
			t.Fatal(err)
		}
	}
	for _, id := range spareIDs {
		n := startNode(t, id, ring) // spares boot with the live ring config
		nodes[id] = n
	}

	cfg.Ring = ring
	if cfg.JournalPath == "" {
		cfg.JournalPath = filepath.Join(t.TempDir(), "supervisor.journal")
	}
	if cfg.Transport == nil {
		cfg.Transport = fleet.TCP(dialOpts())
	}
	if cfg.Detector.FailAfter == 0 {
		cfg.Detector.FailAfter = 2
	}
	for _, id := range append(append([]string{}, ringIDs...), spareIDs...) {
		cfg.Nodes = append(cfg.Nodes, nodes[id].node())
	}
	sup, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { sup.Close() })
	return nodes, sup
}

// dataFleet is the client-side data path: a fleet whose routing refetches
// from the supervisor's committed table, as a deployment's initiators
// would.
func dataFleet(t *testing.T, sup *Supervisor) *fleet.Fleet {
	t.Helper()
	fl, err := fleet.New(sup.Ring(), dialOpts())
	if err != nil {
		t.Fatal(err)
	}
	fl.SetControl(sup.Ring, sup.ReportMiss)
	t.Cleanup(func() { fl.Close() })
	return fl
}

func fill(t *testing.T, fl *fleet.Fleet, seed int64) []byte {
	t.Helper()
	model := make([]byte, fl.Ring().Size())
	rand.New(rand.NewSource(seed)).Read(model)
	if err := fl.WriteAt(model, 0); err != nil {
		t.Fatal(err)
	}
	return model
}

func rangeSlice(model []byte, rng int) []byte {
	return model[int64(rng)*tRangeBytes : (int64(rng)+1)*tRangeBytes]
}

func backendRange(t *testing.T, n *supNode, rng int) []byte {
	t.Helper()
	n.mu.Lock()
	defer n.mu.Unlock()
	buf := make([]byte, tRangeBytes)
	if err := n.back.ReadAt(buf, int64(rng)*tRangeBytes); err != nil {
		t.Fatal(err)
	}
	return buf
}

// tickUntil drives the supervisor until cond holds, bounding the schedule
// so a wedged state fails fast with the last status in the message.
func tickUntil(t *testing.T, sup *Supervisor, max int, what string, cond func(Status) bool) Status {
	t.Helper()
	var st Status
	for i := 0; i < max; i++ {
		var err error
		st, err = sup.Tick()
		if err != nil {
			t.Fatalf("tick %d (%s): %v", i, what, err)
		}
		if cond(st) {
			return st
		}
	}
	t.Fatalf("%s not reached in %d ticks; last status %+v", what, max, st)
	return st
}

// TestSupervisorAutonomousLifecycle is the acceptance test: kill → detect
// → quarantine → repair → join → commit, all supervisor-driven. The test
// never calls SetRing/SetEpoch on a node; only node boot config and the
// supervisor touch routing.
func TestSupervisorAutonomousLifecycle(t *testing.T) {
	nodes, sup := startCluster(t, []string{"a", "b", "c"}, []string{"d"}, 2, Config{})
	fl := dataFleet(t, sup)
	model := fill(t, fl, 42)

	// Steady state: everyone healthy, nothing quarantined.
	st := tickUntil(t, sup, 3, "steady state", func(st Status) bool {
		return len(st.Down) == 0 && len(st.Quarantined) == 0
	})
	if st.Epoch != 1 || st.Phase != cluster.SupStable {
		t.Fatalf("steady state %+v", st)
	}

	// Fail-stop b. The supervisor must classify it Down off its own pings
	// (FailAfter=2) and quarantine every range b serves.
	nodes["b"].kill(t)
	st = tickUntil(t, sup, 6, "detection", func(st Status) bool {
		return slices.Contains(st.Down, "b")
	})
	if len(st.Quarantined) == 0 {
		t.Fatal("down node quarantined nothing")
	}
	for _, k := range st.Quarantined {
		if k.Node != "b" || !sup.Ring().OwnedBy(k.Range, "b") {
			t.Fatalf("bogus quarantine %+v", k)
		}
	}
	if st.Detections == 0 || st.DetectLatency <= 0 {
		t.Fatalf("detection metrics %+v", st)
	}
	quarCount := len(st.Quarantined)

	// The data plane rides through on the surviving replicas.
	got := make([]byte, int64(tRanges)*tRangeBytes)
	if err := fl.ReadAt(got, 0); err != nil {
		t.Fatalf("read with b down: %v", err)
	}
	if !bytes.Equal(got, model) {
		t.Fatal("read with b down diverges from model")
	}

	// b returns with a wiped disk. The supervisor must stream every
	// quarantined range back from the surviving replica, hash-verified,
	// before b's copies count again.
	nodes["b"].restart(t, sup.Ring().Size(), true)
	st = tickUntil(t, sup, 12, "repair", func(st Status) bool {
		return len(st.Quarantined) == 0 && !slices.Contains(st.Down, "b")
	})
	if st.Repairs < quarCount {
		t.Fatalf("repairs %d < quarantined %d", st.Repairs, quarCount)
	}
	if st.RepairLatency <= 0 {
		t.Fatalf("MTTR not measured: %+v", st)
	}
	for rng := 0; rng < tRanges; rng++ {
		if sup.Ring().OwnedBy(rng, "b") {
			if !bytes.Equal(backendRange(t, nodes["b"], rng), rangeSlice(model, rng)) {
				t.Fatalf("range %d not healed on b", rng)
			}
		}
	}

	// Join the spare. The supervisor streams the moves, commits two epochs
	// up, pushes the new table, and catch-up-verifies every moved copy.
	if err := sup.BeginJoin(cluster.Member{ID: "d", Addr: nodes["d"].addr}); err != nil {
		t.Fatal(err)
	}
	moves := cluster.Moves(sup.Ring(), mustJoin(t, sup.Ring(), cluster.Member{ID: "d", Addr: nodes["d"].addr}))
	if len(moves) == 0 {
		t.Fatal("join moved nothing; layout makes this pass vacuous")
	}
	st = tickUntil(t, sup, 20, "join commit", func(st Status) bool {
		return st.Phase == cluster.SupStable && st.Epoch == 3 && len(st.Quarantined) == 0
	})
	if st.Commits != 1 {
		t.Fatalf("commits %d", st.Commits)
	}
	for _, mv := range moves {
		if !bytes.Equal(backendRange(t, nodes[mv.Target], mv.Range), rangeSlice(model, mv.Range)) {
			t.Fatalf("range %d not on new owner %s after commit", mv.Range, mv.Target)
		}
	}

	// The committed epoch reached the nodes through the ping/SetEpoch
	// channel — including the joiner.
	cli, err := netblock.Dial(nodes["d"].addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	info, err := cli.Ping()
	if err != nil {
		t.Fatal(err)
	}
	if info.Epoch != 3 {
		t.Fatalf("joiner advertises epoch %d, want 3", info.Epoch)
	}

	// Every byte acked before the failure is still readable on the new
	// placement (client refetches routing from the supervisor).
	if err := fl.SetRing(sup.Ring()); err != nil {
		t.Fatal(err)
	}
	if err := fl.ReadAt(got, 0); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, model) {
		t.Fatal("post-lifecycle read diverges from model")
	}
}

// tickCrashes runs one tick and reports whether a push killed the
// supervisor during it.
func tickCrashes(t *testing.T, sup *Supervisor) (crashed bool) {
	t.Helper()
	defer func() {
		if r := recover(); r != nil {
			if r != errCrash {
				panic(r)
			}
			crashed = true
		}
	}()
	if _, err := sup.Tick(); err != nil {
		t.Fatal(err)
	}
	return false
}

func mustJoin(t *testing.T, r *cluster.Ring, m cluster.Member) *cluster.Ring {
	t.Helper()
	next, err := r.WithJoin(m)
	if err != nil {
		t.Fatal(err)
	}
	return next
}

// TestSupervisorCrashMidCommitTCP kills the supervisor between journaling
// a commit and pushing it — the worst spot — and proves a fresh supervisor
// over the same journal finishes the push, re-quarantines the moved
// copies, and converges with nothing lost.
func TestSupervisorCrashMidCommitTCP(t *testing.T) {
	journal := filepath.Join(t.TempDir(), "supervisor.journal")
	nodes, sup := startCluster(t, []string{"a", "b", "c"}, []string{"d"}, 2, Config{JournalPath: journal})
	fl := dataFleet(t, sup)
	model := fill(t, fl, 7)

	tickUntil(t, sup, 3, "steady state", func(st Status) bool { return len(st.Down) == 0 })
	if err := sup.BeginJoin(cluster.Member{ID: "d", Addr: nodes["d"].addr}); err != nil {
		t.Fatal(err)
	}
	// The first push after the journal records a decision kills the
	// supervisor, as a process dies: nothing after the journal write runs.
	decided := func() bool {
		data, err := os.ReadFile(journal)
		if err != nil {
			return false
		}
		j, err := cluster.DecodeSupJournal(data)
		return err == nil && j.Phase == cluster.SupPush
	}
	for _, n := range nodes {
		n.crash = decided
	}
	crashed := false
	for i := 0; i < 20 && !crashed; i++ {
		crashed = tickCrashes(t, sup)
	}
	if !crashed {
		t.Fatal("the commit push never ran")
	}
	for _, n := range nodes {
		n.crash = nil
	}

	// The journal is in the push phase with the decided epoch and the
	// moved set; no node has seen the new epoch yet.
	data, err := os.ReadFile(journal)
	if err != nil {
		t.Fatal(err)
	}
	j, err := cluster.DecodeSupJournal(data)
	if err != nil {
		t.Fatal(err)
	}
	if j.Phase != cluster.SupPush || j.Epoch != 3 || len(j.Pending) == 0 {
		t.Fatalf("crash journal %+v", j)
	}
	for _, id := range []string{"a", "b", "c"} {
		cli, err := netblock.Dial(nodes[id].addr)
		if err != nil {
			t.Fatal(err)
		}
		info, err := cli.Ping()
		cli.Close()
		if err != nil {
			t.Fatal(err)
		}
		if info.Epoch >= 3 {
			t.Fatalf("node %s saw epoch %d before the journal's push completed", id, info.Epoch)
		}
	}
	sup.Close()

	// Recovery: a new supervisor over the same journal (no initial ring —
	// the journal is authoritative) finishes the interrupted push.
	var cfg2 Config
	cfg2.JournalPath = journal
	cfg2.Transport = fleet.TCP(dialOpts())
	cfg2.Detector.FailAfter = 2
	for _, id := range []string{"a", "b", "c", "d"} {
		cfg2.Nodes = append(cfg2.Nodes, nodes[id].node())
	}
	sup2, err := New(cfg2)
	if err != nil {
		t.Fatal(err)
	}
	defer sup2.Close()
	st := sup2.Status()
	if st.RecoveredPushes != 1 || st.Epoch != 3 || st.Phase != cluster.SupStable {
		t.Fatalf("recovery status %+v", st)
	}
	if len(st.Quarantined) == 0 {
		t.Fatal("recovered commit re-quarantined no moved copies")
	}

	// Catch-up repairs drain; the epoch lands everywhere; all data reads
	// back on the new placement.
	tickUntil(t, sup2, 12, "catch-up", func(st Status) bool {
		return len(st.Quarantined) == 0
	})
	cli, err := netblock.Dial(nodes["d"].addr)
	if err != nil {
		t.Fatal(err)
	}
	info, err := cli.Ping()
	cli.Close()
	if err != nil {
		t.Fatal(err)
	}
	if info.Epoch != 3 {
		t.Fatalf("joiner advertises epoch %d after recovery, want 3", info.Epoch)
	}
	fl2 := dataFleet(t, sup2)
	got := make([]byte, int64(tRanges)*tRangeBytes)
	if err := fl2.ReadAt(got, 0); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, model) {
		t.Fatal("post-recovery read diverges from model")
	}
}

// TestSupervisorResumeMidTransition stops a supervisor with moves still
// pending; its successor must resume the stream from the journal rather
// than restart or abort it.
func TestSupervisorResumeMidTransition(t *testing.T) {
	journal := filepath.Join(t.TempDir(), "supervisor.journal")
	nodes, sup := startCluster(t, []string{"a", "b", "c"}, []string{"d"}, 2, Config{JournalPath: journal})
	fl := dataFleet(t, sup)
	model := fill(t, fl, 11)

	tickUntil(t, sup, 3, "steady state", func(st Status) bool { return len(st.Down) == 0 })
	if err := sup.BeginJoin(cluster.Member{ID: "d", Addr: nodes["d"].addr}); err != nil {
		t.Fatal(err)
	}
	// A tick streams two moves, so the midpoint needs three or more.
	total := sup.Status().Pending
	if total < 3 {
		t.Fatalf("join yields %d moves; need 3+ for a midpoint", total)
	}
	st := tickUntil(t, sup, 5, "partial stream", func(st Status) bool {
		return st.Pending > 0 && st.Pending < total
	})
	sup.Close()

	var cfg2 Config
	cfg2.JournalPath = journal
	cfg2.Transport = fleet.TCP(dialOpts())
	cfg2.Detector.FailAfter = 2
	for _, id := range []string{"a", "b", "c", "d"} {
		cfg2.Nodes = append(cfg2.Nodes, nodes[id].node())
	}
	sup2, err := New(cfg2)
	if err != nil {
		t.Fatal(err)
	}
	defer sup2.Close()
	rst := sup2.Status()
	if rst.Resumes != 1 || rst.Phase != cluster.SupTransition || rst.Pending != st.Pending {
		t.Fatalf("resume status %+v (want pending %d)", rst, st.Pending)
	}

	tickUntil(t, sup2, 20, "resumed commit", func(st Status) bool {
		return st.Phase == cluster.SupStable && st.Epoch == 3 && len(st.Quarantined) == 0
	})
	fl2 := dataFleet(t, sup2)
	got := make([]byte, int64(tRanges)*tRangeBytes)
	if err := fl2.ReadAt(got, 0); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, model) {
		t.Fatal("post-resume read diverges from model")
	}
}

// TestChainForwardFailureRepair: a down-chain replica dies mid-stream of
// writes. The head keeps acking, the supervisor quarantines the dead tail,
// and once it returns — stale, not wiped — hash-verified repair converges
// it onto the bytes written while it was away.
func TestChainForwardFailureRepair(t *testing.T) {
	nodes, sup := startCluster(t, []string{"a", "b", "c"}, nil, 2, Config{})
	fl := dataFleet(t, sup)
	model := fill(t, fl, 23)

	tickUntil(t, sup, 3, "steady state", func(st Status) bool { return len(st.Down) == 0 })

	// Pick a range and kill its tail (the down-chain replica).
	const rng = 0
	owners := sup.Ring().Owners(rng)
	if len(owners) != 2 {
		t.Fatalf("owners %v", owners)
	}
	head, tail := owners[0], owners[1]
	nodes[tail].kill(t)

	// Writes to the head still ack — forward failure is tolerated, not
	// propagated to the client.
	patch := bytes.Repeat([]byte{0xEE}, 512)
	off := int64(rng) * tRangeBytes
	if err := fl.WriteAt(patch, off); err != nil {
		t.Fatalf("write with dead tail: %v", err)
	}
	copy(model[off:], patch)
	if !bytes.Equal(backendRange(t, nodes[head], rng)[:512], patch) {
		t.Fatal("head missed the acked write")
	}

	// The supervisor notices the dead tail and quarantines its copies.
	st := tickUntil(t, sup, 6, "tail detection", func(st Status) bool {
		return slices.Contains(st.Down, tail)
	})
	quarantined := false
	for _, k := range st.Quarantined {
		if k.Node == tail && k.Range == rng {
			quarantined = true
		}
	}
	if !quarantined {
		t.Fatalf("tail %s range %d not quarantined: %+v", tail, rng, st.Quarantined)
	}

	// The tail returns with its stale pre-kill copy. Repair must detect
	// the divergence by hash and overwrite it with the acked bytes.
	nodes[tail].restart(t, sup.Ring().Size(), false)
	tickUntil(t, sup, 12, "tail repair", func(st Status) bool {
		return len(st.Quarantined) == 0 && !slices.Contains(st.Down, tail)
	})
	if !bytes.Equal(backendRange(t, nodes[tail], rng), rangeSlice(model, rng)) {
		t.Fatal("tail not converged onto acked writes after repair")
	}
	// Whole-volume readback still matches the model.
	got := make([]byte, int64(tRanges)*tRangeBytes)
	if err := fl.ReadAt(got, 0); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, model) {
		t.Fatal("post-repair read diverges from model")
	}
}

// TestSupervisorRefusedForwardIsReported: over TCP a refused connection is
// no proof that a member is down — a partition's reset looks the same, with
// the member still serving other clients — so a head whose first dial to
// its successor is refused reports the miss before it acknowledges the
// write, with no tick run.
func TestSupervisorRefusedForwardIsReported(t *testing.T) {
	nodes, sup := startCluster(t, []string{"a", "b", "c"}, nil, 2, Config{})
	fl := dataFleet(t, sup)
	const rng = 0
	tail := sup.Ring().Owners(rng)[1]
	nodes[tail].kill(t) // before the head ever dialed it
	if err := fl.WriteAt(make([]byte, 512), int64(rng)*tRangeBytes); err != nil {
		t.Fatal(err)
	}
	if !sup.Quarantined(tail, rng) {
		t.Fatalf("tail %s missed an acknowledged write of range %d unreported", tail, rng)
	}
}

// TestSupervisorDrainingIsNotFailure: a member announcing a planned drain
// must be classified as departing — no Down, no detection, no quarantine
// while it is away — and reclassified healthy when it returns. Coming back
// is a boot like any other: its copies are verified before they serve.
func TestSupervisorDrainingIsNotFailure(t *testing.T) {
	nodes, sup := startCluster(t, []string{"a", "b", "c"}, nil, 2, Config{})
	tickUntil(t, sup, 3, "steady state", func(st Status) bool { return len(st.Down) == 0 })

	// b deregisters the way a SIGTERM'd netblockd does, then goes away.
	nodes["b"].srv.BeginDrain()
	st := tickUntil(t, sup, 4, "departing", func(st Status) bool {
		return slices.Contains(st.Departing, "b")
	})
	if slices.Contains(st.Down, "b") || len(st.Quarantined) != 0 {
		t.Fatalf("draining member treated as failed: %+v", st)
	}
	nodes["b"].kill(t)

	// Silence after a drain announcement is a scheduled departure: many
	// ticks past FailAfter, still no quarantine.
	for i := 0; i < 5; i++ {
		var err error
		if st, err = sup.Tick(); err != nil {
			t.Fatal(err)
		}
	}
	if slices.Contains(st.Down, "b") || len(st.Quarantined) != 0 {
		t.Fatalf("departed member quarantined: %+v", st)
	}

	// The planned restart completes; b pings clean and resumes as a
	// healthy member, never having been detected as failed.
	nodes["b"].restart(t, sup.Ring().Size(), false)
	st = tickUntil(t, sup, 6, "rejoin", func(st Status) bool {
		return !slices.Contains(st.Departing, "b") && !slices.Contains(st.Down, "b") && len(st.Quarantined) == 0
	})
	if st.Detections != 0 || st.Restarts != 1 {
		t.Fatalf("planned restart treated as a failure: %+v", st)
	}
}

// TestSupervisorAbortsUnresumableTransition: a journaled transition whose
// target placement names a node nobody registered cannot be resumed; the
// recovering supervisor must abort it at a fresh epoch, not guess.
func TestSupervisorAbortsUnresumableTransition(t *testing.T) {
	nodes, sup := startCluster(t, []string{"a", "b", "c"}, []string{"d"}, 2, Config{})
	journal := sup.cfg.JournalPath
	tickUntil(t, sup, 3, "steady state", func(st Status) bool { return len(st.Down) == 0 })
	if err := sup.BeginJoin(cluster.Member{ID: "d", Addr: nodes["d"].addr}); err != nil {
		t.Fatal(err)
	}
	sup.Close()

	// The successor doesn't know d (its registration was lost with the old
	// supervisor's config).
	var cfg2 Config
	cfg2.JournalPath = journal
	cfg2.Transport = fleet.TCP(dialOpts())
	cfg2.Detector.FailAfter = 2
	for _, id := range []string{"a", "b", "c"} {
		cfg2.Nodes = append(cfg2.Nodes, nodes[id].node())
	}
	sup2, err := New(cfg2)
	if err != nil {
		t.Fatal(err)
	}
	defer sup2.Close()
	st := sup2.Status()
	if st.Aborts != 1 || st.Phase != cluster.SupStable || st.Pending != 0 {
		t.Fatalf("recovery status %+v", st)
	}
	if st.Epoch != 3 {
		t.Fatalf("abort epoch %d, want fresh epoch 3", st.Epoch)
	}
	if _, ok := sup2.Ring().Member("d"); ok {
		t.Fatal("aborted join left d in the placement")
	}
}

// sharedRange returns a range both x and y own, failing if the layout has
// none (the caller's scenario would pass vacuously).
func sharedRange(t *testing.T, r *cluster.Ring, x, y string) int {
	t.Helper()
	for rng := 0; rng < r.Ranges; rng++ {
		if r.OwnedBy(rng, x) && r.OwnedBy(rng, y) {
			return rng
		}
	}
	t.Fatalf("no range owned by both %s and %s", x, y)
	return -1
}

func hasHold(st Status, want Hold) bool {
	for _, h := range st.Holds {
		if h == want {
			return true
		}
	}
	return false
}

// TestSupervisorNoCleanSourceHold: a quarantined copy whose only other
// owner is down has no source to repair from. The supervisor must report
// HoldNoCleanSource — not a generic repair failure — and keep the copy
// quarantined. The reason comes from errors.Is(err,
// fleet.ErrNoSourceReplica), so this fails if RepairRange stops wrapping
// the sentinel.
func TestSupervisorNoCleanSourceHold(t *testing.T) {
	nodes, sup := startCluster(t, []string{"a", "b", "c"}, nil, 2, Config{})
	tickUntil(t, sup, 3, "steady state", func(st Status) bool { return len(st.Down) == 0 })
	rng := sharedRange(t, sup.Ring(), "a", "c")

	// a fail-stops and is quarantined; it returns, but c — the only other
	// owner of rng — dies before the repair runs.
	nodes["a"].kill(t)
	tickUntil(t, sup, 6, "detection", func(st Status) bool { return slices.Contains(st.Down, "a") })
	nodes["a"].restart(t, sup.Ring().Size(), false)
	nodes["c"].kill(t)

	want := Hold{Reason: HoldNoCleanSource, Node: "a", Range: rng}
	st := tickUntil(t, sup, 3, "no-clean-source hold", func(st Status) bool { return hasHold(st, want) })
	if !sup.Quarantined("a", rng) {
		t.Fatalf("copy left quarantine with no source to repair from: %+v", st)
	}
}

// staleGate refuses reads with netblock.ErrStaleEpoch while refuse is set.
type staleGate struct {
	netblock.Backend
	refuse atomic.Bool
}

func (g *staleGate) ReadAt(p []byte, off int64) error {
	if g.refuse.Load() {
		return fmt.Errorf("gate: %w", netblock.ErrStaleEpoch)
	}
	return g.Backend.ReadAt(p, off)
}

// TestSupervisorStaleEpochRefreshesFleet: when a node refuses a repair or a
// rebalance stream because the supervisor's own data-path client routed it
// by an outdated ring, the supervisor re-syncs that client to the table
// (refreshFleet) — the table itself never moves — and the work succeeds on
// a later attempt. Removing either refreshFleet call fails a subtest.
func TestSupervisorStaleEpochRefreshesFleet(t *testing.T) {
	t.Run("repair", func(t *testing.T) {
		_, sup := startCluster(t, []string{"a", "b", "c"}, nil, 2, Config{})
		tickUntil(t, sup, 3, "steady state", func(st Status) bool { return len(st.Down) == 0 })
		cur := sup.Ring()
		rng := sharedRange(t, cur, "a", "c")

		// The supervisor's client lags on a ring without c, so it picks b
		// as the repair source for rng; b does not own rng and refuses.
		lagging, err := cur.WithLeave("c")
		if err != nil {
			t.Fatal(err)
		}
		if err := sup.fl.SetRing(lagging); err != nil {
			t.Fatal(err)
		}
		sup.mu.Lock()
		sup.quar[cluster.DegKey{Node: "a", Range: rng}] = true
		sup.mu.Unlock()

		st, err := sup.Tick()
		if err != nil {
			t.Fatal(err)
		}
		if sup.fl.Ring() != cur {
			t.Fatal("supervisor's fleet still routes by the lagging ring after a stale-epoch refusal")
		}
		if sup.Quarantined("a", rng) || st.Repairs != 1 {
			t.Fatalf("repair did not succeed on a later attempt: %+v", st)
		}
	})

	t.Run("stream", func(t *testing.T) {
		nodes, sup := startCluster(t, []string{"a", "b", "c"}, []string{"d"}, 2, Config{})
		tickUntil(t, sup, 3, "steady state", func(st Status) bool { return len(st.Down) == 0 })
		cur := sup.Ring()
		d := cluster.Member{ID: "d", Addr: nodes["d"].addr}
		next := mustJoin(t, cur, d)

		// A move streams from its range's first old owner. Restart that
		// node behind a gate, let the supervisor repair its copies, then
		// make the gate refuse every read as stale, as a node whose
		// placement moved past the supervisor's table would.
		src := cur.Owners(cluster.Moves(cur, next)[0].Range)[0]
		gate := &staleGate{Backend: nodes[src].back}
		nodes[src].kill(t)
		nodes[src].back = gate
		nodes[src].restart(t, cur.Size(), false)
		tickUntil(t, sup, 12, "restart repaired", func(st Status) bool {
			return st.Restarts == 1 && len(st.Quarantined) == 0
		})
		gate.refuse.Store(true)
		// The supervisor's own client lags the table.
		lagging, err := cur.WithLeave("c")
		if err != nil {
			t.Fatal(err)
		}
		if err := sup.fl.SetRing(lagging); err != nil {
			t.Fatal(err)
		}
		if err := sup.BeginJoin(d); err != nil {
			t.Fatal(err)
		}

		st, err := sup.Tick()
		if err != nil {
			t.Fatal(err)
		}
		refused := false
		for _, h := range st.Holds {
			refused = refused || h.Reason == HoldNoCleanSource
		}
		if !refused || st.Phase != cluster.SupTransition {
			t.Fatalf("stale source did not refuse its stream: %+v", st)
		}
		if sup.fl.Ring() != sup.Ring() {
			t.Fatal("supervisor's fleet still routes by the lagging ring after a stale-epoch refusal")
		}

		// Once the source serves again, the re-queued stream succeeds and
		// the join commits.
		gate.refuse.Store(false)
		tickUntil(t, sup, 20, "join commit", func(st Status) bool {
			return st.Phase == cluster.SupStable && st.Epoch == 3
		})
	})
}

// TestSupervisorConcurrentClose: Close may be called from several
// goroutines at once, with or without the tick loop running. Every call
// returns, none panics (stop is closed once, under once.Do), and the tick
// goroutine has exited by then.
func TestSupervisorConcurrentClose(t *testing.T) {
	for _, started := range []bool{false, true} {
		t.Run(fmt.Sprintf("started=%v", started), func(t *testing.T) {
			_, sup := startCluster(t, []string{"a", "b", "c"}, nil, 2, Config{})
			if started {
				sup.Start(time.Millisecond)
			}
			done := make(chan struct{})
			go func() {
				var wg sync.WaitGroup
				for i := 0; i < 4; i++ {
					wg.Add(1)
					go func() {
						defer wg.Done()
						sup.Close()
					}()
				}
				wg.Wait()
				sup.wg.Wait() // the tick goroutine's Done
				close(done)
			}()
			<-done // a Close that never returns hangs the test until its timeout
			select {
			case <-sup.stop:
			default:
				t.Fatal("Close left the stop channel open")
			}
		})
	}
}

// checkVolume reads every range through fl and fails on any byte that is
// not the model's — the stale-read probe.
func checkVolume(t *testing.T, fl *fleet.Fleet, model []byte, when string) {
	t.Helper()
	for rng := 0; rng < tRanges; rng++ {
		got := make([]byte, tRangeBytes)
		if err := fl.ReadAt(got, int64(rng)*tRangeBytes); err != nil {
			t.Fatalf("%s: read range %d: %v", when, rng, err)
		}
		if !bytes.Equal(got, rangeSlice(model, rng)) {
			t.Fatalf("%s: range %d read back stale bytes", when, rng)
		}
	}
}

// TestSupervisorLeaveCommits drains one of four members. Each move's target
// is a member that does not own the range yet, so it must accept the
// stream: the placement the supervisor pushes at the start of a transition
// names the next owners. The leave commits, and every range byte-verifies
// on every owner.
func TestSupervisorLeaveCommits(t *testing.T) {
	nodes, sup := startCluster(t, []string{"a", "b", "c", "d"}, nil, 2, Config{})
	fl := dataFleet(t, sup)
	model := fill(t, fl, 31)
	tickUntil(t, sup, 3, "steady state", func(st Status) bool { return len(st.Down) == 0 })

	if err := sup.BeginLeave("d"); err != nil {
		t.Fatal(err)
	}
	st := tickUntil(t, sup, 30, "leave commit", func(st Status) bool {
		return st.Phase == cluster.SupStable && st.Epoch == 3 && len(st.Quarantined) == 0
	})
	if st.Commits != 1 || st.Aborts != 0 {
		t.Fatalf("leave did not commit: %+v", st)
	}
	ring := sup.Ring()
	if _, in := ring.Member("d"); in {
		t.Fatal("d still in the placement")
	}
	for rng := 0; rng < tRanges; rng++ {
		for _, id := range ring.Owners(rng) {
			if !bytes.Equal(backendRange(t, nodes[id], rng), rangeSlice(model, rng)) {
				t.Fatalf("range %d on %s diverges after the leave", rng, id)
			}
		}
	}
	checkVolume(t, fl, model, "after the leave")
}

// TestSupervisorRestartedCopyNeverServesStale: a member is classified Down
// and quarantined, misses writes, and restarts with its old disk. From the
// moment it is back until its repair, and after, no read returns its stale
// bytes: it serves nothing until the supervisor places it, and the
// placement carries its quarantine.
func TestSupervisorRestartedCopyNeverServesStale(t *testing.T) {
	nodes, sup := startCluster(t, []string{"a", "b", "c"}, nil, 2, Config{})
	fl := dataFleet(t, sup)
	fill(t, fl, 41)
	tickUntil(t, sup, 3, "steady state", func(st Status) bool { return len(st.Down) == 0 })

	nodes["b"].kill(t)
	tickUntil(t, sup, 6, "b down", func(st Status) bool { return slices.Contains(st.Down, "b") })
	model := fill(t, fl, 42) // b misses every write

	nodes["b"].restart(t, sup.Ring().Size(), false)
	checkVolume(t, fl, model, "b back, before a tick")
	for i := 0; i < 12; i++ {
		st, err := sup.Tick()
		if err != nil {
			t.Fatal(err)
		}
		checkVolume(t, fl, model, fmt.Sprintf("tick %d after b's restart", i))
		if len(st.Quarantined) == 0 && !slices.Contains(st.Down, "b") {
			return
		}
	}
	t.Fatalf("b's copies were never repaired: %+v", sup.Status())
}

// cutTransport is a TCP transport that cannot reach one member, as a client
// on the far side of a partition sees it.
type cutTransport struct {
	cluster.Transport
	cut string
}

func (c cutTransport) Dial(m cluster.Member) (cluster.Peer, error) {
	if m.ID == c.cut {
		return nil, fmt.Errorf("dial %s: cut off", m.ID)
	}
	return c.Transport.Dial(m)
}

// TestSupervisorReportsMissesWhileTicking runs the daemon: Start ticks and
// a monitor polls Status, so the supervisor's lock is rarely free. A writer
// cut off from a range's head writes through the tail and reports the
// head's miss; the write is acknowledged only once the head's copy is
// quarantined, so a reader that reaches the head never gets stale bytes —
// however the report interleaves with the ticks repairing that copy. Each
// burst of writes starts once the head's copy is repaired, so its first
// report finds the copy clean.
func TestSupervisorReportsMissesWhileTicking(t *testing.T) {
	_, sup := startCluster(t, []string{"a", "b", "c"}, nil, 2, Config{})
	const rng = 0
	head := sup.Ring().Owners(rng)[0]
	writer, err := fleet.NewWith(sup.Ring(), cutTransport{fleet.TCP(dialOpts()), head})
	if err != nil {
		t.Fatal(err)
	}
	defer writer.Close()
	writer.SetControl(sup.Ring, sup.ReportMiss)
	reader := dataFleet(t, sup)

	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
				sup.Status()
			}
		}
	}()
	defer wg.Wait()
	defer close(stop)
	sup.Start(time.Millisecond)

	const bursts, burst = 12, 25
	off := int64(rng) * tRangeBytes
	want, got := make([]byte, 512), make([]byte, 512)
	for i := 0; i < bursts*burst; i++ {
		if i%burst == 0 {
			tickUntil(t, sup, 20, "head repaired", func(st Status) bool { return len(st.Quarantined) == 0 })
		}
		for j := range want {
			want[j] = byte(i + 1)
		}
		if err := writer.WriteAt(want, off); err != nil {
			t.Fatalf("write %d: %v", i, err)
		}
		if err := reader.ReadAt(got, off); err != nil {
			t.Fatalf("read %d: %v", i, err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("write %d acknowledged, then read back stale bytes from %s", i, head)
		}
	}
	if st := sup.Status(); st.Repairs < bursts-1 {
		t.Fatalf("%d repairs of the head's copy for %d bursts of writes: %+v", st.Repairs, bursts, st)
	}
}

// TestSupervisorMissedWritesBelowFailAfter: a member is down for one tick —
// below FailAfter, so it is never classified Down — and misses writes. When
// it returns it is repaired, and no read returns its stale bytes.
func TestSupervisorMissedWritesBelowFailAfter(t *testing.T) {
	nodes, sup := startCluster(t, []string{"a", "b", "c"}, nil, 2, Config{})
	fl := dataFleet(t, sup)
	fill(t, fl, 51)
	tickUntil(t, sup, 3, "steady state", func(st Status) bool { return len(st.Down) == 0 })

	nodes["b"].kill(t)
	if _, err := sup.Tick(); err != nil {
		t.Fatal(err)
	}
	model := fill(t, fl, 52) // b misses every write
	nodes["b"].restart(t, sup.Ring().Size(), false)
	checkVolume(t, fl, model, "b back")

	for i := 0; i < 10; i++ {
		st, err := sup.Tick()
		if err != nil {
			t.Fatal(err)
		}
		if slices.Contains(st.Down, "b") {
			t.Fatalf("b classified Down after one missed ping: %+v", st)
		}
		checkVolume(t, fl, model, fmt.Sprintf("tick %d after b's return", i))
	}
	if st := sup.Status(); len(st.Quarantined) != 0 {
		t.Fatalf("b's copies still quarantined: %+v", st)
	}
	for rng := 0; rng < tRanges; rng++ {
		if sup.Ring().OwnedBy(rng, "b") && !bytes.Equal(backendRange(t, nodes["b"], rng), rangeSlice(model, rng)) {
			t.Fatalf("range %d on b not repaired", rng)
		}
	}
}
