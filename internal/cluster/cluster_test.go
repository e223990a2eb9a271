package cluster_test

import (
	"bytes"
	"errors"
	"testing"

	"srccache/internal/cluster"
	"srccache/internal/cluster/fleet"
	"srccache/internal/cluster/supervisor"
	"srccache/internal/netblock"
	"srccache/internal/netlink"
	"srccache/internal/vtime"
)

// The scenario tests run the shipped protocol — fleet client, chain
// backends, supervisor — over the virtual transport: deterministic, no
// sockets, one goroutine.

const rangeBytes = 4096

// testCluster is a small fleet on virtual links.
type testCluster struct {
	net   *cluster.Net
	sup   *supervisor.Supervisor
	fl    *fleet.Fleet
	disks map[string]netblock.Backend
	nodes map[string]*fleet.ChainBackend
}

// newTestCluster boots members a, b, … in the ring and spares after them,
// under a supervisor.
func newTestCluster(t *testing.T, members, spares, replicas, ranges int) *testCluster {
	t.Helper()
	n, err := cluster.NewNet(netlink.Config{})
	if err != nil {
		t.Fatal(err)
	}
	tc := &testCluster{net: n, disks: map[string]netblock.Backend{}, nodes: map[string]*fleet.ChainBackend{}}
	var ms []cluster.Member
	var cfg supervisor.Config
	for i := 0; i < members+spares; i++ {
		id := string(rune('a' + i))
		if i < members {
			ms = append(ms, cluster.Member{ID: id})
		}
		tc.boot(t, id, int64(ranges)*rangeBytes, true)
		cfg.Nodes = append(cfg.Nodes, supervisor.Node{Member: cluster.Member{ID: id}, Push: tc.push(id)})
	}
	if cfg.Ring, err = cluster.NewRing(replicas, ranges, rangeBytes, ms); err != nil {
		t.Fatal(err)
	}
	cfg.Detector = cluster.DetectorConfig{FailAfter: 2}
	cfg.Transport = n.Endpoint("control")
	if tc.sup, err = supervisor.New(cfg); err != nil {
		t.Fatal(err)
	}
	if tc.fl, err = fleet.NewWith(cfg.Ring, n.Endpoint("client")); err != nil {
		t.Fatal(err)
	}
	tc.fl.SetControl(tc.sup.Ring, tc.sup.ReportMiss)
	return tc
}

// boot (re)starts node id over its old disk, or a fresh one.
func (tc *testCluster) boot(t *testing.T, id string, size int64, wipe bool) {
	t.Helper()
	if wipe {
		disk, err := netblock.MemBackend(size)
		if err != nil {
			t.Fatal(err)
		}
		tc.disks[id] = disk
	}
	chain, err := fleet.Boot(tc.disks[id], id, tc.net.Endpoint(id))
	if err != nil {
		t.Fatal(err)
	}
	tc.nodes[id] = chain
	if err := tc.net.Attach(id, chain); err != nil {
		t.Fatal(err)
	}
}

func (tc *testCluster) push(id string) func(fleet.Placement) error {
	return func(p fleet.Placement) error {
		if !tc.net.Alive(id) {
			return errors.New("down")
		}
		if err := tc.nodes[id].Install(p); err != nil {
			return err
		}
		tc.net.SetEpoch(id, p.Table.Epoch)
		return nil
	}
}

func (tc *testCluster) write(t *testing.T, off int64, p []byte) {
	t.Helper()
	if err := tc.fl.WriteAt(p, off); err != nil {
		t.Fatalf("WriteAt(%d): %v", off, err)
	}
}

func (tc *testCluster) readBack(t *testing.T, off int64, want []byte) {
	t.Helper()
	got := make([]byte, len(want))
	if err := tc.fl.ReadAt(got, off); err != nil {
		t.Fatalf("ReadAt(%d): %v", off, err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("ReadAt(%d) read back other bytes", off)
	}
}

// tickUntil drives the supervisor until cond holds.
func (tc *testCluster) tickUntil(t *testing.T, what string, cond func(supervisor.Status) bool) supervisor.Status {
	t.Helper()
	for i := 0; i < 30; i++ {
		st, err := tc.sup.Tick()
		if err != nil {
			t.Fatal(err)
		}
		if cond(st) {
			return st
		}
	}
	t.Fatalf("%s not reached; last status %+v", what, tc.sup.Status())
	return supervisor.Status{}
}

// settled is the supervisor at rest: stable, nothing quarantined.
func settled(st supervisor.Status) bool {
	return st.Phase == cluster.SupStable && len(st.Quarantined) == 0
}

// disk reads range rng off node id's disk, bypassing every fence.
func (tc *testCluster) disk(t *testing.T, id string, rng int) []byte {
	t.Helper()
	buf := make([]byte, rangeBytes)
	if err := tc.disks[id].ReadAt(buf, int64(rng)*rangeBytes); err != nil {
		t.Fatal(err)
	}
	return buf
}

// replicasAgree fails unless every owner of every range holds the same
// bytes.
func (tc *testCluster) replicasAgree(t *testing.T) {
	t.Helper()
	ring := tc.sup.Ring()
	for rng := 0; rng < ring.Ranges; rng++ {
		owners := ring.Owners(rng)
		for _, id := range owners[1:] {
			if !bytes.Equal(tc.disk(t, owners[0], rng), tc.disk(t, id, rng)) {
				t.Fatalf("range %d: %s diverges from %s", rng, id, owners[0])
			}
		}
	}
}

func TestClusterWriteReadAcrossRanges(t *testing.T) {
	tc := newTestCluster(t, 3, 0, 2, 8)
	p := bytes.Repeat([]byte("0123456789abcdef"), 512) // 8 KiB: spans 3 ranges
	tc.write(t, 2048, p)
	tc.readBack(t, 2048, p)
	for id, n := range tc.nodes {
		if _, failed := n.Forwards(); failed != 0 {
			t.Fatalf("%s: %d forwards reached no successor on a healthy fleet", id, failed)
		}
	}
	if st := tc.sup.Status(); len(st.Quarantined) != 0 {
		t.Fatalf("healthy write quarantined copies: %+v", st)
	}
	if err := tc.fl.ReadAt(make([]byte, 1), tc.sup.Ring().Size()); err == nil {
		t.Fatal("read past end of volume accepted")
	}
}

func TestClusterReplicasByteIdentical(t *testing.T) {
	tc := newTestCluster(t, 3, 0, 3, 4)
	tc.write(t, 0, bytes.Repeat([]byte{0xAB}, rangeBytes))
	if owners := tc.sup.Ring().Owners(0); len(owners) != 3 {
		t.Fatalf("owners = %v", owners)
	}
	tc.replicasAgree(t)
}

func TestClusterReadFailsOverWhenHeadDies(t *testing.T) {
	tc := newTestCluster(t, 3, 0, 2, 4)
	p := bytes.Repeat([]byte{7}, 1024)
	tc.write(t, 0, p)
	tc.net.Kill(tc.sup.Ring().Owners(0)[0])
	tc.readBack(t, 0, p)
	if tc.fl.Stats().Failovers == 0 {
		t.Fatal("read served without recorded failover despite a dead head")
	}
}

// A write whose tail is down acknowledges on the head; the tail comes back
// with its old disk, is quarantined as restarted, and repaired.
func TestClusterWriteSkipsDeadReplicaAndRepairHeals(t *testing.T) {
	tc := newTestCluster(t, 3, 0, 2, 4)
	tail := tc.sup.Ring().Owners(0)[1]
	tc.net.Kill(tail)

	p := bytes.Repeat([]byte{9}, 2048)
	tc.write(t, 0, p) // acks on the head alone
	tc.readBack(t, 0, p)

	tc.boot(t, tail, tc.sup.Ring().Size(), false)
	st := tc.tickUntil(t, "repair", settled)
	if st.Restarts != 1 || st.Repairs == 0 {
		t.Fatalf("restarted tail not quarantined and repaired: %+v", st)
	}
	tc.replicasAgree(t)
}

func TestClusterNoReplicaIsHardError(t *testing.T) {
	tc := newTestCluster(t, 2, 0, 2, 2)
	p := []byte("xx")
	tc.write(t, 0, p)
	for _, id := range tc.sup.Ring().Owners(0) {
		tc.net.Kill(id)
	}
	if err := tc.fl.ReadAt(make([]byte, 2), 0); !errors.Is(err, cluster.ErrDown) {
		t.Fatalf("read with all replicas dead = %v, want cluster.ErrDown", err)
	}
	if err := tc.fl.WriteAt(p, 0); !errors.Is(err, cluster.ErrDown) {
		t.Fatalf("write with all replicas dead = %v, want cluster.ErrDown", err)
	}
}

// A commit the client never heard of: its head for a range has left, and
// refuses the read as stale; the client refetches and reads the new owners.
func TestClusterStaleEpochTriggersRefetch(t *testing.T) {
	tc := newTestCluster(t, 4, 0, 2, 8)
	old := tc.sup.Ring()
	leaver := old.Members()[3].ID
	rng := -1
	for r := 0; r < old.Ranges && rng < 0; r++ {
		if old.Owners(r)[0] == leaver {
			rng = r
		}
	}
	if rng < 0 {
		t.Fatalf("%s heads no range; pick other member IDs", leaver)
	}
	p := []byte("epoch")
	tc.write(t, int64(rng)*rangeBytes, p)
	if err := tc.sup.BeginLeave(leaver); err != nil {
		t.Fatal(err)
	}
	tc.tickUntil(t, "leave commit", func(st supervisor.Status) bool { return settled(st) && st.Commits == 1 })
	if tc.fl.Ring() != old {
		t.Fatal("client learned the commit before any op")
	}
	before := tc.fl.Stats().Refetches
	tc.readBack(t, int64(rng)*rangeBytes, p)
	if tc.fl.Stats().Refetches != before+1 {
		t.Fatalf("Refetches went %d -> %d across an epoch bump", before, tc.fl.Stats().Refetches)
	}
	if tc.fl.Ring() != tc.sup.Ring() {
		t.Fatal("client ring still stale after refetch")
	}
}

// A join streams while the fleet serves: writes and reads between ticks
// see their own bytes throughout, and the new placement ends
// byte-identical.
func TestClusterJoinRebalanceServesThroughout(t *testing.T) {
	tc := newTestCluster(t, 3, 1, 2, 8)
	payload := func(b byte) []byte { return bytes.Repeat([]byte{b}, rangeBytes) }
	for rng := 0; rng < 8; rng++ {
		tc.write(t, int64(rng)*rangeBytes, payload(byte(rng+1)))
	}
	if err := tc.sup.BeginJoin(cluster.Member{ID: "d"}); err != nil {
		t.Fatal(err)
	}
	if tc.sup.Status().Pending == 0 {
		t.Fatal("join moved nothing")
	}
	for step := 0; !settled(tc.sup.Status()) || step == 0; step++ {
		if step > 30 {
			t.Fatalf("join never settled: %+v", tc.sup.Status())
		}
		rng := step % 8
		tc.write(t, int64(rng)*rangeBytes, payload(byte(0x80+step)))
		tc.readBack(t, int64(rng)*rangeBytes, payload(byte(0x80+step)))
		if _, err := tc.sup.Tick(); err != nil {
			t.Fatal(err)
		}
	}
	if _, in := tc.sup.Ring().Member("d"); !in {
		t.Fatal("joiner not in the committed placement")
	}
	tc.replicasAgree(t)
}

// A drained member leaves the placement, and refuses the reads it no
// longer owns.
func TestClusterLeaveDrainsNode(t *testing.T) {
	tc := newTestCluster(t, 4, 0, 2, 8)
	p := bytes.Repeat([]byte{5}, rangeBytes)
	for rng := 0; rng < 8; rng++ {
		tc.write(t, int64(rng)*rangeBytes, p)
	}
	leaver := tc.sup.Ring().Members()[0].ID
	if err := tc.sup.BeginLeave(leaver); err != nil {
		t.Fatal(err)
	}
	tc.tickUntil(t, "leave commit", func(st supervisor.Status) bool { return settled(st) && st.Commits == 1 })
	for rng := 0; rng < 8; rng++ {
		tc.readBack(t, int64(rng)*rangeBytes, p)
		if tc.sup.Ring().OwnedBy(rng, leaver) {
			t.Fatalf("range %d still owned by leaver", rng)
		}
		if err := tc.nodes[leaver].ReadAt(make([]byte, 1), int64(rng)*rangeBytes); !errors.Is(err, netblock.ErrStaleEpoch) {
			t.Fatalf("leaver serves range %d: %v", rng, err)
		}
	}
	tc.replicasAgree(t)
}

// A disk replacement: the node restarts empty, reads never touch its
// copies, and repair restores them byte-identical.
func TestClusterWipeRestartRoundTripsThroughRepair(t *testing.T) {
	tc := newTestCluster(t, 3, 0, 2, 4)
	var payloads [4][]byte
	for rng := 0; rng < 4; rng++ {
		payloads[rng] = bytes.Repeat([]byte{byte(0x10 + rng)}, rangeBytes)
		tc.write(t, int64(rng)*rangeBytes, payloads[rng])
	}
	victim := tc.sup.Ring().Members()[1].ID
	tc.net.Kill(victim)
	tc.boot(t, victim, tc.sup.Ring().Size(), true)
	for rng := 0; rng < 4; rng++ {
		tc.readBack(t, int64(rng)*rangeBytes, payloads[rng])
	}
	tc.tickUntil(t, "repair", settled)
	tc.replicasAgree(t)
}

// A chain forward that cannot reach the tail quarantines the tail's copy
// before the write is acknowledged; reads never see it until repair.
func TestClusterPartitionedReplicaQuarantinedOnWrite(t *testing.T) {
	tc := newTestCluster(t, 3, 0, 2, 1)
	owners := tc.sup.Ring().Owners(0)
	head, tail := owners[0], owners[1]
	tc.net.Partition(head, tail) // chain forward path cut, client fine

	p := bytes.Repeat([]byte{1}, 512)
	tc.write(t, 0, p)
	if !tc.sup.Quarantined(tail, 0) {
		t.Fatal("replica behind a partition not quarantined after a missed write")
	}
	tc.readBack(t, 0, p)
	tc.net.Heal(head, tail)
	tc.tickUntil(t, "repair", settled)
	tc.readBack(t, 0, p)
	tc.replicasAgree(t)
}

func TestClusterUnreachableCostsVirtualTime(t *testing.T) {
	tc := newTestCluster(t, 2, 0, 2, 1)
	tc.write(t, 0, []byte("t"))
	tc.net.Kill(tc.sup.Ring().Owners(0)[0])
	before := tc.net.Now()
	tc.readBack(t, 0, []byte("t"))
	// Learning that a peer is gone costs the transport's unreachable
	// timeout, 5 ms.
	if elapsed := tc.net.Now().Sub(before); elapsed < 5*vtime.Millisecond {
		t.Fatalf("failover read took %v, less than one unreachable timeout", elapsed)
	}
}
