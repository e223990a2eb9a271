package fleet_test

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"srccache/internal/cluster"
	"srccache/internal/cluster/fleet"
	"srccache/internal/netblock"
	"srccache/internal/watchdog"
)

// The fleet tests run the chain protocol over real TCP on loopback: every
// node is a live netblock server whose backend is a ChainBackend, and the
// Fleet client drives it exactly as an initiator would. Backends are held
// in-process so replica contents can be checked without trusting the
// network path under test.

const (
	tRanges     = 8
	tRangeBytes = int64(4096)
)

// dialOpts and serverIdle are netblockd's deadlines: the chain's and the
// client's, and the server's default idle timeout.
func dialOpts() netblock.ClientOptions {
	return netblock.ClientOptions{DialTimeout: 2 * time.Second, Timeout: 10 * time.Second}
}

const serverIdle = 2 * time.Minute

type tnode struct {
	id    string
	addr  string
	back  netblock.Backend
	chain *fleet.ChainBackend
	srv   *netblock.Server
}

func mkRing(t *testing.T, replicas int, members []cluster.Member) *cluster.Ring {
	t.Helper()
	r, err := cluster.NewRing(replicas, tRanges, tRangeBytes, members)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// startNode serves a node on a loopback port. The test runs under the
// watchdog: a connection that holds a server's lock wedges the others, and
// the test would hang rather than fail.
func startNode(t *testing.T, id string, ring *cluster.Ring) *tnode {
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
	srv.IdleTimeout = serverIdle
	watchdog.Arm(t)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	n := &tnode{id: id, addr: addr.String(), back: back, chain: chain, srv: srv}
	t.Cleanup(func() {
		n.srv.Close()
		n.chain.Close()
	})
	return n
}

// startFleet boots ids as live servers, then rebuilds the ring with their
// bound addresses and installs it everywhere — the bootstrap two-step a real
// deployment does with a config file instead.
func startFleet(t *testing.T, ids []string, replicas int) (map[string]*tnode, *cluster.Ring, *fleet.Fleet) {
	t.Helper()
	var boot []cluster.Member
	for _, id := range ids {
		boot = append(boot, cluster.Member{ID: id})
	}
	bootRing := mkRing(t, replicas, boot)
	nodes := make(map[string]*tnode, len(ids))
	var members []cluster.Member
	for _, id := range ids {
		nodes[id] = startNode(t, id, bootRing)
		members = append(members, cluster.Member{ID: id, Addr: nodes[id].addr})
	}
	ring := mkRing(t, replicas, members)
	for _, n := range nodes {
		if err := n.chain.SetRing(ring); err != nil {
			t.Fatal(err)
		}
	}
	fl, err := fleet.New(ring, dialOpts())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { fl.Close() })
	return nodes, ring, fl
}

// restartNode brings a killed node back on its old address, optionally with
// a wiped (fresh) backend.
func restartNode(t *testing.T, n *tnode, ring *cluster.Ring, wipe bool) {
	t.Helper()
	n.srv.Close()
	n.chain.Close()
	if wipe {
		back, err := netblock.MemBackend(ring.Size())
		if err != nil {
			t.Fatal(err)
		}
		n.back = back
	}
	chain, err := fleet.NewChainBackend(n.back, n.id, ring, dialOpts())
	if err != nil {
		t.Fatal(err)
	}
	srv, err := netblock.NewServerWith(chain)
	if err != nil {
		t.Fatal(err)
	}
	srv.IdleTimeout = serverIdle
	if _, err := srv.Listen(n.addr); err != nil {
		t.Fatalf("rebind %s: %v", n.addr, err)
	}
	n.chain, n.srv = chain, srv
	t.Cleanup(func() {
		srv.Close()
		chain.Close()
	})
}

// fill writes a seeded pattern over the whole volume through the fleet and
// returns the model bytes.
func fill(t *testing.T, fl *fleet.Fleet, ring *cluster.Ring, seed int64) []byte {
	t.Helper()
	model := make([]byte, ring.Size())
	rand.New(rand.NewSource(seed)).Read(model)
	if err := fl.WriteAt(model, 0); err != nil {
		t.Fatal(err)
	}
	return model
}

// rangeSlice cuts range rng out of a model volume.
func rangeSlice(model []byte, rng int) []byte {
	return model[int64(rng)*tRangeBytes : (int64(rng)+1)*tRangeBytes]
}

// backendRange reads range rng straight off a node's in-process backend.
func backendRange(t *testing.T, n *tnode, rng int) []byte {
	t.Helper()
	buf := make([]byte, tRangeBytes)
	if err := n.back.ReadAt(buf, int64(rng)*tRangeBytes); err != nil {
		t.Fatal(err)
	}
	return buf
}

func TestChainReplicatesToEveryOwner(t *testing.T) {
	nodes, ring, fl := startFleet(t, []string{"a", "b", "c", "d"}, 2)
	model := fill(t, fl, ring, 1)

	for rng := 0; rng < tRanges; rng++ {
		owners := ring.Owners(rng)
		if len(owners) != 2 {
			t.Fatalf("range %d: %d owners", rng, len(owners))
		}
		isOwner := map[string]bool{}
		for _, id := range owners {
			isOwner[id] = true
			if got := backendRange(t, nodes[id], rng); !bytes.Equal(got, rangeSlice(model, rng)) {
				t.Fatalf("range %d: replica %s diverges from model", rng, id)
			}
		}
		zero := make([]byte, tRangeBytes)
		for id, n := range nodes {
			if !isOwner[id] && !bytes.Equal(backendRange(t, n, rng), zero) {
				t.Fatalf("range %d: non-owner %s holds data", rng, id)
			}
		}
	}

	got := make([]byte, ring.Size())
	if err := fl.ReadAt(got, 0); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, model) {
		t.Fatal("fleet read diverges from model")
	}

	var forwards, errs int64
	for _, n := range nodes {
		ok, failed := n.chain.Forwards()
		forwards += ok
		errs += failed
	}
	if forwards == 0 {
		t.Fatal("no chain forwards recorded")
	}
	if errs != 0 {
		t.Fatalf("%d forward failures on a healthy fleet", errs)
	}
}

// TestChainTrimReachesEveryReplica trims every range through its chain
// head on a 3-member, R = 3 fleet over a written pattern. Only the head
// hears the client, so every other replica's local backend reads zeros
// only if the trim went down the chain.
func TestChainTrimReachesEveryReplica(t *testing.T) {
	nodes, ring, fl := startFleet(t, []string{"a", "b", "c"}, 3)
	fill(t, fl, ring, 2)
	zero := make([]byte, tRangeBytes)
	for rng := 0; rng < tRanges; rng++ {
		owners := ring.Owners(rng)
		if len(owners) != 3 {
			t.Fatalf("range %d: %d owners", rng, len(owners))
		}
		cli, err := netblock.DialOptions(nodes[owners[0]].addr, dialOpts())
		if err != nil {
			t.Fatal(err)
		}
		err = cli.Trim(int64(rng)*tRangeBytes, tRangeBytes)
		cli.Close()
		if err != nil {
			t.Fatalf("range %d: trim through head %s: %v", rng, owners[0], err)
		}
		for _, id := range owners {
			if !bytes.Equal(backendRange(t, nodes[id], rng), zero) {
				t.Fatalf("range %d: replica %s still holds data after a trim through head %s", rng, id, owners[0])
			}
		}
	}
}

func TestFleetFailsOverWhenHeadDies(t *testing.T) {
	nodes, ring, fl := startFleet(t, []string{"a", "b", "c", "d"}, 2)
	model := fill(t, fl, fl.Ring(), 2)

	victim := ring.Owners(0)[0]
	nodes[victim].srv.Close()

	// Reads of every range still serve: ranges headed by the victim fail
	// over to their surviving replica.
	got := make([]byte, ring.Size())
	if err := fl.ReadAt(got, 0); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, model) {
		t.Fatal("post-kill read diverges from model")
	}

	// Writes, too: the survivor becomes the chain head.
	patch := bytes.Repeat([]byte{0xEE}, 512)
	if err := fl.WriteAt(patch, 0); err != nil {
		t.Fatal(err)
	}
	var alive *tnode
	for _, id := range ring.Owners(0) {
		if id != victim {
			alive = nodes[id]
		}
	}
	if !bytes.Equal(backendRange(t, alive, 0)[:512], patch) {
		t.Fatal("failover write missed the surviving replica")
	}
	if fl.Stats().Failovers == 0 {
		t.Fatal("no failovers recorded")
	}
}

func TestFleetRepairAfterWipeRestart(t *testing.T) {
	nodes, ring, fl := startFleet(t, []string{"a", "b", "c"}, 2)
	fill(t, fl, ring, 3)

	// Kill b, keep writing (chains that include b miss it), then bring b
	// back with an empty disk — the wipe-restart the simulation quarantines.
	nodes["b"].srv.Close()
	model := fill(t, fl, fl.Ring(), 4)
	restartNode(t, nodes["b"], ring, true)

	for rng := 0; rng < tRanges; rng++ {
		if !ring.OwnedBy(rng, "b") {
			continue
		}
		// The bytes travel b's management push, as the supervisor's do.
		install := func(data []byte) error {
			return nodes["b"].chain.Install(fleet.Placement{
				Table: &cluster.Table{Cur: ring}, Restarted: true, Fill: map[int][]byte{rng: data},
			})
		}
		if err := fl.RepairRange("b", rng, install); err != nil {
			t.Fatalf("repair range %d: %v", rng, err)
		}
		if got := backendRange(t, nodes["b"], rng); !bytes.Equal(got, rangeSlice(model, rng)) {
			t.Fatalf("range %d on b not byte-identical after repair", rng)
		}
	}
	if fl.Stats().Repairs == 0 {
		t.Fatal("no repairs recorded")
	}

	// The healed node serves forwards again: a fresh write reaches it
	// through the redialed chain. With members a, b and c the ring places
	// b as the tail of ranges 4 and 6.
	patch := bytes.Repeat([]byte{0x5A}, 256)
	var headed int
	for rng := 0; rng < tRanges; rng++ {
		if owners := ring.Owners(rng); len(owners) == 2 && owners[1] == "b" {
			if err := fl.WriteAt(patch, int64(rng)*tRangeBytes); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(backendRange(t, nodes["b"], rng)[:256], patch) {
				t.Fatalf("range %d: post-restart forward missed b", rng)
			}
			headed++
		}
	}
	if headed == 0 {
		t.Fatal("no range places b as tail; the member IDs no longer exercise the forward")
	}
}

func TestChainBackendValidation(t *testing.T) {
	back, err := netblock.MemBackend(int64(tRanges) * tRangeBytes)
	if err != nil {
		t.Fatal(err)
	}
	ring := mkRing(t, 2, []cluster.Member{{ID: "a"}, {ID: "b"}})
	if _, err := fleet.NewChainBackend(nil, "a", ring, dialOpts()); err == nil {
		t.Fatal("nil backend accepted")
	}
	if _, err := fleet.NewChainBackend(back, "", ring, dialOpts()); err == nil {
		t.Fatal("empty ID accepted")
	}
	if _, err := fleet.NewChainBackend(back, "a", nil, dialOpts()); err == nil {
		t.Fatal("nil ring accepted")
	}
	small, err := netblock.MemBackend(tRangeBytes)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fleet.NewChainBackend(small, "a", ring, dialOpts()); err == nil {
		t.Fatal("size mismatch accepted")
	}
	cb, err := fleet.NewChainBackend(back, "a", ring, dialOpts())
	if err != nil {
		t.Fatal(err)
	}
	wrong := mkRing(t, 2, []cluster.Member{{ID: "a"}})
	if err := cb.SetRing(wrong); err != nil {
		t.Fatal(err) // same geometry, fewer members: fine
	}
	bad, err := cluster.NewRing(2, tRanges*2, tRangeBytes, []cluster.Member{{ID: "a"}})
	if err != nil {
		t.Fatal(err)
	}
	if err := cb.SetRing(bad); err == nil {
		t.Fatal("geometry change accepted")
	}
	if _, err := fleet.New(nil, dialOpts()); err == nil {
		t.Fatal("nil ring fleet accepted")
	}
	fl, err := fleet.New(ring, dialOpts())
	if err != nil {
		t.Fatal(err)
	}
	if err := fl.WriteAt(make([]byte, 8), ring.Size()); err == nil {
		t.Fatal("out-of-volume write accepted")
	}
}

// TestInstallRefusalLeavesDiskUntouched: a placement the node refuses — it
// booted and the push does not acknowledge it, the ring's geometry does not
// match its disk, or it quarantines or fills a range the ring does not
// have — writes none of its repair bytes, and an out-of-ring range is
// refused rather than indexed.
func TestInstallRefusalLeavesDiskUntouched(t *testing.T) {
	back, err := netblock.MemBackend(int64(tRanges) * tRangeBytes)
	if err != nil {
		t.Fatal(err)
	}
	cb, err := fleet.Boot(back, "a", fleet.TCP(dialOpts()))
	if err != nil {
		t.Fatal(err)
	}
	defer cb.Close()
	ring := mkRing(t, 2, []cluster.Member{{ID: "a"}, {ID: "b"}})
	bad, err := cluster.NewRing(2, tRanges*2, tRangeBytes, []cluster.Member{{ID: "a"}})
	if err != nil {
		t.Fatal(err)
	}
	fill := map[int][]byte{1: bytes.Repeat([]byte{0xAB}, int(tRangeBytes))}
	table := &cluster.Table{Cur: ring}
	for _, p := range []fleet.Placement{
		{Table: table, Fill: fill},
		{Table: &cluster.Table{Cur: bad}, Restarted: true, Fill: fill},
		{Table: table, Quarantined: []int{99}, Restarted: true},
		{Table: table, Quarantined: []int{-1}, Restarted: true, Fill: fill},
		{Table: table, Restarted: true, Fill: map[int][]byte{1: fill[1], tRanges: fill[1]}},
	} {
		if err := cb.Install(p); err == nil {
			t.Fatalf("placement %+v accepted", p.Table)
		}
		got := make([]byte, tRangeBytes)
		if err := back.ReadAt(got, tRangeBytes); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, make([]byte, tRangeBytes)) {
			t.Fatalf("refused placement %+v wrote its fill", p.Table)
		}
	}
	if err := cb.Install(fleet.Placement{Table: table}); !errors.Is(err, fleet.ErrUnplaced) {
		t.Fatalf("unacknowledged boot: %v, want ErrUnplaced", err)
	}
	if err := cb.Install(fleet.Placement{Table: table, Quarantined: []int{tRanges - 1}, Restarted: true}); err != nil {
		t.Fatalf("in-ring quarantine refused: %v", err)
	}
}

func TestFleetErrorWhenAllReplicasDead(t *testing.T) {
	nodes, ring, fl := startFleet(t, []string{"a", "b", "c"}, 2)
	fill(t, fl, ring, 6)
	for _, id := range ring.Owners(0) {
		nodes[id].srv.Close()
	}
	buf := make([]byte, 64)
	err := fl.ReadAt(buf, 0)
	if err == nil {
		t.Fatal("read served with every replica dead")
	}
	if want := fmt.Sprintf("range %d", 0); !bytes.Contains([]byte(err.Error()), []byte(want)) {
		t.Fatalf("error %q does not name the range", err)
	}
}

// TestFleetStaleEpochRefetch drives the stale-epoch contract end to end
// over real TCP: a membership change the client never heard about makes
// its routing table stale, the old owner (still a ring member) refuses
// with netblock.ErrStaleEpoch, and the fleet either surfaces the contract
// error (no refetch source) or refetches the committed ring and retries
// against the current owners (SetControl installed).
func TestFleetStaleEpochRefetch(t *testing.T) {
	nodes, ring1, fl := startFleet(t, []string{"a", "b"}, 1)
	model := fill(t, fl, ring1, 77)

	// Commit a join behind the client's back: node c comes up as a spare,
	// the moved ranges are streamed to it, and every server (but not the
	// client) swaps to the new ring.
	spare := startNode(t, "c", ring1)
	ring2, err := ring1.WithJoin(cluster.Member{ID: "c", Addr: spare.addr})
	if err != nil {
		t.Fatal(err)
	}
	moves := cluster.Moves(ring1, ring2)
	if len(moves) == 0 {
		t.Fatal("join moved no ranges; pick different member IDs")
	}
	// The joiner takes writes only for ranges its placement gives it.
	if err := spare.chain.SetRing(ring2); err != nil {
		t.Fatal(err)
	}
	for _, mv := range moves {
		if err := fl.StreamMove(ring1, ring2, mv); err != nil {
			t.Fatal(err)
		}
	}
	for _, n := range nodes {
		if err := n.chain.SetRing(ring2); err != nil {
			t.Fatal(err)
		}
	}

	mv := moves[0]
	off := int64(mv.Range) * tRangeBytes
	buf := make([]byte, tRangeBytes)

	// Without a refetch source the refusal must surface as the contract
	// error — not as a generic failure, and not as a hang.
	if err := fl.ReadAt(buf, off); !errors.Is(err, netblock.ErrStaleEpoch) {
		t.Fatalf("stale read err = %v, want netblock.ErrStaleEpoch", err)
	}
	if err := fl.WriteAt(model[off:off+8], off); !errors.Is(err, netblock.ErrStaleEpoch) {
		t.Fatalf("stale write err = %v, want netblock.ErrStaleEpoch", err)
	}

	// A refetch source that cannot advance the ring must not spin: the
	// bounded retry gives up and the contract error still surfaces.
	fl.SetControl(func() *cluster.Ring { return fl.Ring() }, nil)
	if err := fl.ReadAt(buf, off); !errors.Is(err, netblock.ErrStaleEpoch) {
		t.Fatalf("non-advancing refetch err = %v, want netblock.ErrStaleEpoch", err)
	}
	if n := fl.Stats().Refetches; n != 0 {
		t.Fatalf("non-advancing refetch counted %d refetches", n)
	}

	// With the committed ring available, the same read self-heals: the
	// fleet refetches, installs ring2, and serves from the new owner.
	fl.SetControl(func() *cluster.Ring { return ring2 }, nil)
	if err := fl.ReadAt(buf, off); err != nil {
		t.Fatalf("read after refetch: %v", err)
	}
	if !bytes.Equal(buf, rangeSlice(model, mv.Range)) {
		t.Fatal("refetched read returned wrong bytes")
	}
	if n := fl.Stats().Refetches; n != 1 {
		t.Errorf("refetches = %d, want 1", n)
	}

	// The fleet now routes by ring2: the whole volume reads back, and a
	// write to the moved range lands on the new owner's chain.
	whole := make([]byte, ring2.Size())
	if err := fl.ReadAt(whole, 0); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(whole, model) {
		t.Fatal("full volume mismatch after ring swap")
	}
	patch := bytes.Repeat([]byte{0xEE}, 64)
	if err := fl.WriteAt(patch, off); err != nil {
		t.Fatalf("write after refetch: %v", err)
	}
	owner := ring2.Owners(mv.Range)[0]
	var got []byte
	if owner == "c" {
		got = make([]byte, tRangeBytes)
		if err := spare.back.ReadAt(got, off); err != nil {
			t.Fatal(err)
		}
	} else {
		got = backendRange(t, nodes[owner], mv.Range)
	}
	if !bytes.Equal(got[:64], patch) {
		t.Fatalf("write after refetch missed new owner %s", owner)
	}
}

// TestFleetRoundTripAllocatesNothing pins the replicated hot path at zero
// allocations: a 4 KiB write through a 3-node R = 3 chain (client, head,
// two forwards) and a read back, over loopback TCP with netblockd's
// deadlines.
func TestFleetRoundTripAllocatesNothing(t *testing.T) {
	nodes, _, fl := startFleet(t, []string{"n0", "n1", "n2"}, 3)
	const off = 3 * tRangeBytes
	page := bytes.Repeat([]byte{0x5a}, int(tRangeBytes))
	got := make([]byte, len(page))
	roundTrip := func() {
		if err := fl.WriteAt(page, off); err != nil {
			t.Fatal(err)
		}
		if err := fl.ReadAt(got, off); err != nil {
			t.Fatal(err)
		}
	}
	// Dial every connection and grow every payload buffer first.
	for i := 0; i < 1000; i++ {
		roundTrip()
	}
	if n := testing.AllocsPerRun(200, roundTrip); n != 0 {
		t.Errorf("%v allocations per replicated write+read, want 0", n)
	}
	if !bytes.Equal(got, page) {
		t.Fatal("read back other bytes than written")
	}
	var forwards int64
	for _, n := range nodes {
		ok, failed := n.chain.Forwards()
		if failed != 0 {
			t.Fatalf("%d failed forwards on a healthy chain", failed)
		}
		forwards += ok
	}
	if writes := fl.Stats().Writes; forwards != 2*writes {
		t.Errorf("%d forwards for %d writes, want 2 per write", forwards, writes)
	}
}

// countingTransport counts each member's dials through the transport it
// wraps.
type countingTransport struct {
	cluster.Transport
	mu    sync.Mutex
	dials map[string]int
}

func (c *countingTransport) Dial(m cluster.Member) (cluster.Peer, error) {
	c.mu.Lock()
	c.dials[m.ID]++
	c.mu.Unlock()
	return c.Transport.Dial(m)
}

func (c *countingTransport) count(id string) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.dials[id]
}

// TestRefusalKeepsTheConnection: a member that refuses an op answered it,
// so the fleet keeps its connection. A quarantined head refuses a read of
// its range with ErrRemote, the read fails over to the tail, and the
// fleet's next ops to the head, a write it refuses too among them, dial
// nothing.
func TestRefusalKeepsTheConnection(t *testing.T) {
	nodes, ring, _ := startFleet(t, []string{"a", "b", "c"}, 2)
	tr := &countingTransport{Transport: fleet.TCP(dialOpts()), dials: make(map[string]int)}
	fl, err := fleet.NewWith(ring, tr)
	if err != nil {
		t.Fatal(err)
	}
	defer fl.Close()
	model := fill(t, fl, ring, 8)

	head := ring.Owners(0)[0]
	err = nodes[head].chain.Install(fleet.Placement{Table: &cluster.Table{Cur: ring}, Quarantined: []int{0}})
	if err != nil {
		t.Fatal(err)
	}
	direct, err := netblock.DialOptions(nodes[head].addr, dialOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer direct.Close()
	if _, err := direct.ReadAt(make([]byte, 64), 0); !errors.Is(err, netblock.ErrRemote) {
		t.Fatalf("quarantined head answered a read of its range with %v, want ErrRemote", err)
	}

	got := make([]byte, tRangeBytes)
	for i := 0; i < 2; i++ {
		if err := fl.ReadAt(got, 0); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, rangeSlice(model, 0)) {
			t.Fatal("failover read diverges from model")
		}
	}
	if err := fl.WriteAt(got[:64], 0); err != nil {
		t.Fatal(err)
	}
	// The quarantined copy refuses the write too.
	if fo := fl.Stats().Failovers; fo != 3 {
		t.Fatalf("%d failovers, want one per op", fo)
	}
	if n := tr.count(head); n != 1 {
		t.Fatalf("%d dials of the refusing head %s, want 1", n, head)
	}
}
