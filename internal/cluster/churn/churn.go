// Package churn is the cluster's torture harness, run on the code that
// ships: per seed it boots fleet.ChainBackends over netblock.MemBackend on
// cluster.Net's virtual links, serves a fleet.Fleet client's traffic, and
// lets a supervisor.Supervisor drive the lifecycle while a guarded chaos
// schedule kills, restarts and wipes nodes, degrades links, cuts
// client–node and node–node paths, joins and drains members, and kills the
// supervisor — sometimes after it journals a commit and before it pushes
// one. Every acknowledged byte is checked against a model volume. The run
// is single-goroutine and in virtual time, so it is a pure function of its
// Config.
package churn

import (
	"bytes"
	"errors"
	"fmt"
	"hash/fnv"
	"math/rand"
	"os"
	"path/filepath"
	"slices"

	"srccache/internal/cluster"
	"srccache/internal/cluster/fleet"
	"srccache/internal/cluster/supervisor"
	"srccache/internal/netblock"
	"srccache/internal/netlink"
	"srccache/internal/stats"
	"srccache/internal/vtime"
)

// Config parameterizes one churn run. Everything is derived from Seed, so
// a run is a pure function of its config.
type Config struct {
	Seed       int64
	Nodes      int   // initial ring size (default 5)
	Spares     int   // nodes standing by to join (default 1)
	Replicas   int   // replication factor (default 3)
	Ranges     int   // placement ranges (default 16)
	RangeBytes int64 // bytes per range (default 64 KiB)
	Ops        int   // client operations to issue (default 400)
	ChurnEvery int   // chaos tick every this many ops (default 20)
	Link       netlink.Config
	Detector   cluster.DetectorConfig
}

func (c Config) withDefaults() Config {
	def := func(v *int, d int) {
		if *v == 0 {
			*v = d
		}
	}
	def(&c.Nodes, 5)
	def(&c.Spares, 1)
	def(&c.Replicas, 3)
	def(&c.Ranges, 16)
	def(&c.Ops, 400)
	def(&c.ChurnEvery, 20)
	if c.RangeBytes == 0 {
		c.RangeBytes = 64 << 10
	}
	if c.Link.RTT == 0 {
		c.Link.RTT = 200 * vtime.Microsecond
	}
	if c.Link.Jitter == 0 {
		c.Link.Jitter = 10 * vtime.Microsecond
	}
	if c.Link.Seed == 0 {
		c.Link.Seed = c.Seed
	}
	if c.Detector.Baseline == 0 {
		c.Detector.Baseline = 2 * c.Link.RTT
	}
	if c.Detector.FailAfter == 0 {
		c.Detector.FailAfter = 2
	}
	return c
}

// Result is one run's evidence: coverage counters for every fault class
// the schedule injected, the invariant violations observed (which must be
// zero), and client-side latency digests.
type Result struct {
	Seed    int64
	Elapsed vtime.Duration

	Ops, Reads, Writes int
	FailedOps          int // ops that still failed after maxStalls ticks — must be 0
	VerifyErrors       int // reads or final copies that mismatched the model — must be 0

	Kills, Restarts, Wipes          int
	Degrades, LinkHeals             int
	ClientCuts, NodeCuts, CutHeals  int
	Joins, Leaves                   int
	Commits, LeaveCommits, Aborts   int
	GuardSkips                      int
	Stalls                          int // op retries while no replica could serve
	RangesRepaired, Misses, Reboots int // supervisor repairs, missed writes reported, restarts caught
	SupKills, SupRestarts           int
	SupResumes, SupRecoverPushes    int
	MidCommitCrashes                int
	RepairRebalanceCrashes          int
	SlowJoinHeads                   int
	Failovers, Refetches            int64 // the fleet client's
	Forwards, ForwardMisses         int64 // the chain backends'
	DownDetected, SlowDetected      bool
	ReadLat, WriteLat               stats.Summary
}

// Signature digests the run for determinism comparisons: two runs of the
// same config must produce identical signatures.
func (r Result) Signature() string {
	h := fnv.New64a()
	fmt.Fprintf(h, "%+v", r)
	return fmt.Sprintf("%016x", h.Sum64())
}

// Violations summarizes the hard failures, empty when the run upheld every
// invariant.
func (r Result) Violations() []string {
	var v []string
	if r.FailedOps > 0 {
		v = append(v, fmt.Sprintf("%d client ops failed after waiting %d schedule ticks", r.FailedOps, maxStalls))
	}
	if r.VerifyErrors > 0 {
		v = append(v, fmt.Sprintf("%d acknowledged writes lost or misread", r.VerifyErrors))
	}
	return v
}

// node is one member's disk and the chain backend serving it; a reboot
// replaces the backend, a wipe the disk too.
type node struct {
	disk  netblock.Backend
	chain *fleet.ChainBackend
}

// maxStalls bounds how many schedule ticks one op may wait for a replica.
const maxStalls = 16

// crash is the panic a push raises to kill the supervisor mid-commit.
type crash struct{}

// sim is one run's mutable state.
type sim struct {
	cfg    Config
	rng    *rand.Rand
	net    *cluster.Net
	res    Result
	nodes  map[string]*node
	ids    []string // every node, sorted; the first cfg.Nodes start in the ring
	client *fleet.Fleet
	sup    *supervisor.Supervisor // nil while the control plane is dead
	supCfg supervisor.Config
	pushed *cluster.Table // the newest table a node accepted
	err    error

	// armed makes the next push of a journaled decision kill the
	// supervisor: the mid-commit crash.
	armed bool

	model     []byte       // the acknowledged contents of the volume
	acked     map[int]bool // ranges with at least one acknowledged write
	ackedList []int        // same, in append order for seeded picking

	downed, slowed    []string
	cuts              [][2]string
	readLat, writeLat stats.Histogram
}

// Run drives one seeded churn schedule against a fresh cluster and
// reports what happened. The schedule is guarded: before every destructive
// action it checks that each range keeps a reachable owner serving a clean
// copy under every placement that is or is about to be authoritative — so
// zero failed operations and zero lost writes are absolute invariants.
func Run(cfg Config) (Result, error) {
	cfg = cfg.withDefaults()
	s := &sim{cfg: cfg, rng: rand.New(rand.NewSource(cfg.Seed)), nodes: make(map[string]*node), acked: make(map[int]bool)}
	s.res.Seed = cfg.Seed
	dir, err := os.MkdirTemp("", "churn")
	if err != nil {
		return s.res, err
	}
	defer os.RemoveAll(dir)
	if err := s.setup(dir); err != nil {
		return s.res, err
	}
	for i := 0; i < cfg.Ops && s.err == nil; i++ {
		if i%cfg.ChurnEvery == 0 {
			s.churnTick()
		}
		s.clientOp()
		s.net.Advance(50 * vtime.Microsecond)
	}
	if s.err == nil {
		s.drain()
	}
	if s.err != nil {
		return s.res, s.err
	}
	s.finalVerify()
	s.retireSup(false)

	s.res.Elapsed = s.net.Now().Sub(0)
	st := s.client.Stats()
	s.res.Failovers, s.res.Refetches = st.Failovers, st.Refetches
	for _, id := range s.ids {
		s.countForwards(s.nodes[id].chain)
	}
	s.res.ReadLat = s.readLat.Summarize()
	s.res.WriteLat = s.writeLat.Summarize()
	return s.res, nil
}

func (s *sim) setup(dir string) error {
	net, err := cluster.NewNet(s.cfg.Link)
	if err != nil {
		return err
	}
	s.net = net
	var members []cluster.Member
	for i := 0; i < s.cfg.Nodes+s.cfg.Spares; i++ {
		id := fmt.Sprintf("n%02d", i)
		s.ids = append(s.ids, id)
		if i < s.cfg.Nodes {
			members = append(members, cluster.Member{ID: id})
		}
		if err := s.boot(id, true); err != nil {
			return err
		}
		s.supCfg.Nodes = append(s.supCfg.Nodes, supervisor.Node{Member: cluster.Member{ID: id}, Push: s.push(id)})
	}
	ring, err := cluster.NewRing(s.cfg.Replicas, s.cfg.Ranges, s.cfg.RangeBytes, members)
	if err != nil {
		return err
	}
	s.model = make([]byte, ring.Size())
	s.pushed = &cluster.Table{Cur: ring}
	if s.client, err = fleet.NewWith(ring, net.Endpoint("client")); err != nil {
		return err
	}
	// A client refetches the placement the nodes were given.
	s.client.SetControl(func() *cluster.Ring { return s.pushed.Cur }, s.reportMiss)
	s.supCfg.Ring = ring
	s.supCfg.JournalPath = filepath.Join(dir, "journal")
	s.supCfg.Detector = s.cfg.Detector
	s.supCfg.Transport = net.Endpoint("control")
	s.sup, err = supervisor.New(s.supCfg)
	return err
}

// boot (re)starts node id: a new chain backend over its old disk, or over a
// fresh one when wipe is set, with no placement until the supervisor's.
func (s *sim) boot(id string, wipe bool) error {
	nd := s.nodes[id]
	if nd == nil {
		nd = &node{}
		s.nodes[id] = nd
	}
	if wipe {
		disk, err := netblock.MemBackend(int64(s.cfg.Ranges) * s.cfg.RangeBytes)
		if err != nil {
			return err
		}
		nd.disk = disk
	}
	if nd.chain != nil {
		s.countForwards(nd.chain)
	}
	chain, err := fleet.Boot(nd.disk, id, s.net.Endpoint(id))
	if err != nil {
		return err
	}
	nd.chain = chain
	return s.net.Attach(id, chain)
}

func (s *sim) countForwards(c *fleet.ChainBackend) {
	ok, failed := c.Forwards()
	s.res.Forwards += ok
	s.res.ForwardMisses += failed
}

// push is node id's management channel: install the placement and
// advertise its epoch. Armed, it kills the supervisor on the first push of
// a journaled decision.
func (s *sim) push(id string) func(p fleet.Placement) error {
	return func(p fleet.Placement) error {
		if !s.net.Alive(id) {
			return fmt.Errorf("churn: %s is down", id)
		}
		if s.armed && p.Table.Epoch > s.pushed.Epoch && p.Table.Next == nil && s.pushed.Next != nil {
			panic(crash{}) // the first push of a decided transition
		}
		if err := s.nodes[id].chain.Install(p); err != nil {
			return err
		}
		s.net.SetEpoch(id, p.Table.Epoch)
		s.observePush(p.Table)
		return nil
	}
}

// observePush books the transitions a new epoch ends.
func (s *sim) observePush(t *cluster.Table) {
	prev := s.pushed
	if t.Epoch <= prev.Epoch {
		return
	}
	s.pushed = t
	if prev.Next == nil || t.Next != nil {
		return
	}
	if !sameMembers(t.Cur, prev.Next) {
		s.res.Aborts++
		return
	}
	s.res.Commits++
	if len(t.Cur.Members()) < len(prev.Cur.Members()) {
		s.res.LeaveCommits++
	}
}

// sameMembers reports whether two rings share a member ID set.
func sameMembers(a, b *cluster.Ring) bool {
	return slices.EqualFunc(a.Members(), b.Members(), func(x, y cluster.Member) bool { return x.ID == y.ID })
}

// tick runs one supervisor round, if a supervisor is up. A crash the push
// raised kills it.
func (s *sim) tick() {
	if s.sup == nil || s.err != nil {
		return
	}
	defer func() {
		if r := recover(); r != nil {
			if _, ok := r.(crash); !ok {
				panic(r)
			}
			s.retireSup(true)
			s.res.MidCommitCrashes++
		}
	}()
	st, err := s.sup.Tick()
	if err != nil {
		s.err = err
		return
	}
	s.res.DownDetected = s.res.DownDetected || len(st.Down) > 0
	s.res.SlowDetected = s.res.SlowDetected || len(st.Slow) > 0
}

// retireSup ends the supervisor's life — killed, or at the end of the run
// — and books its counters.
func (s *sim) retireSup(killed bool) {
	if s.sup == nil {
		return
	}
	st := s.sup.Status()
	s.res.RangesRepaired += st.Repairs
	s.res.Misses += st.Misses
	s.res.Reboots += st.Restarts
	s.sup.Close()
	s.sup, s.armed = nil, false
	if killed {
		s.res.SupKills++
	}
}

// reportMiss is the client's line to the control plane: down while the
// supervisor is.
func (s *sim) reportMiss(node string, rng int) error {
	if s.sup == nil {
		return errors.New("churn: no supervisor")
	}
	return s.sup.ReportMiss(node, rng)
}

// restartSup recovers a supervisor from the journal, exactly as a process
// restart would.
func (s *sim) restartSup() {
	sup, err := supervisor.New(s.supCfg)
	if err != nil {
		s.err = err
		return
	}
	s.sup = sup
	st := sup.Status()
	s.res.SupRestarts++
	s.res.SupResumes += st.Resumes
	s.res.SupRecoverPushes += st.RecoveredPushes
}

// clientOp issues one read or write against the cluster and mirrors it
// into the model volume.
func (s *sim) clientOp() {
	write := len(s.ackedList) == 0 || s.rng.Intn(100) < 45
	off, n := s.pickExtent(write)
	p := make([]byte, n)
	t0 := s.net.Now()
	op := s.client.ReadAt
	if write {
		s.rng.Read(p)
		op = s.client.WriteAt
	}
	err := op(p, off)
	// An op can find no replica to serve it for a while: with no
	// supervisor up, a chain that cannot record a missed forward refuses
	// the write rather than leave an unknown stale copy; and the only
	// clean copy may be cut from this client while the others await
	// repair. The client blocks and retries while the schedule moves on.
	for i := 0; err != nil && i < maxStalls && s.err == nil; i++ {
		s.res.Stalls++
		s.churnTick()
		err = op(p, off)
	}
	if write {
		s.writeLat.Observe(s.net.Now().Sub(t0))
	} else {
		s.readLat.Observe(s.net.Now().Sub(t0))
	}
	s.res.Ops++
	switch {
	case err != nil:
		s.res.FailedOps++
	case write:
		s.res.Writes++
		copy(s.model[off:], p)
		for rng := int(off / s.cfg.RangeBytes); rng <= int((off+n-1)/s.cfg.RangeBytes); rng++ {
			if !s.acked[rng] {
				s.acked[rng] = true
				s.ackedList = append(s.ackedList, rng)
			}
		}
	default:
		s.res.Reads++
		if !bytes.Equal(p, s.model[off:off+n]) {
			s.res.VerifyErrors++
		}
	}
}

// pickExtent chooses a (possibly range-crossing) extent. Writes roam the
// whole volume; reads stay within acknowledged ranges.
func (s *sim) pickExtent(write bool) (off, n int64) {
	rb := s.cfg.RangeBytes
	var rng int
	if write {
		rng = s.rng.Intn(s.cfg.Ranges)
	} else {
		rng = s.ackedList[s.rng.Intn(len(s.ackedList))]
	}
	base := int64(rng) * rb
	n = int64(1+s.rng.Intn(int(min(rb/512, 8)))) * 512
	// Occasionally straddle the boundary into the next range to exercise
	// the client's extent splitting.
	cross := rng+1 < s.cfg.Ranges && rb >= 1024 && s.rng.Intn(10) == 0
	if cross && (write || s.acked[rng+1]) {
		return base + rb - 512, 1024
	}
	slots := int((rb - n) / 512)
	if slots <= 0 {
		return base, n
	}
	return base + int64(s.rng.Intn(slots+1))*512, n
}

// servesClean reports whether node id, as the client can reach it now,
// serves range rng with the model's bytes.
func (s *sim) servesClean(id string, rng int) bool {
	if !s.net.Reachable("client", id) {
		return false
	}
	base := int64(rng) * s.cfg.RangeBytes
	buf := make([]byte, s.cfg.RangeBytes)
	return s.nodes[id].chain.ReadAt(buf, base) == nil && bytes.Equal(buf, s.model[base:base+s.cfg.RangeBytes])
}

// safeWithout is the schedule guard: if the excluded nodes vanished, would
// every range still have an owner the client can read a clean copy from —
// under the current placement, and under the next one among the owners that
// keep the range (a commit quarantines the moved copies)? Writes roam the whole
// volume, so every range counts, written or not. Chaos that fails this
// would lose data under any protocol; chaos that passes must not.
func (s *sim) safeWithout(excluded map[string]bool) bool {
	cur, next := s.pushed.Cur, s.pushed.Next
	for rng := 0; rng < s.cfg.Ranges; rng++ {
		for _, p := range []*cluster.Ring{cur, next} {
			if p == nil {
				continue
			}
			ok := false
			for _, id := range p.Owners(rng) {
				if !excluded[id] && cur.OwnedBy(rng, id) && s.servesClean(id, rng) {
					ok = true
					break
				}
			}
			if !ok {
				return false
			}
		}
	}
	return true
}

// aliveMembers are the fault candidates: live members of the current
// placement that neither join nor leave in the transition under way.
func (s *sim) aliveMembers() []string {
	var out []string
	for _, m := range s.pushed.Cur.Members() {
		staying := s.pushed.Next == nil
		if !staying {
			_, staying = s.pushed.Next.Member(m.ID)
		}
		if staying && s.net.Alive(m.ID) {
			out = append(out, m.ID)
		}
	}
	return out
}

// churnTick runs the supervisor and injects one guarded chaos action plus
// the control-plane faults.
func (s *sim) churnTick() {
	s.tick()
	switch s.rng.Intn(10) {
	case 0, 1:
		s.actKill(false)
	case 2:
		s.actRestart()
	case 3:
		s.actWipe()
	case 4:
		s.actDegrade()
	case 5:
		s.actHealLink()
	case 6:
		s.actPartition()
	case 7:
		s.actHealPartition()
	case 8:
		s.actMembership()
	case 9:
		s.tick()
	}
	s.supChaos()
	s.net.Advance(vtime.Millisecond)
}

// guardedVictim picks a live member whose loss the guard allows.
func (s *sim) guardedVictim() (string, bool) {
	alive := s.aliveMembers()
	if len(alive) == 0 {
		return "", false
	}
	victim := alive[s.rng.Intn(len(alive))]
	if !s.safeWithout(map[string]bool{victim: true}) {
		s.res.GuardSkips++
		return "", false
	}
	return victim, true
}

func (s *sim) actKill(composed bool) {
	victim, ok := s.guardedVictim()
	if !ok {
		return
	}
	s.net.Kill(victim)
	s.downed = append(s.downed, victim)
	s.res.Kills++
	if composed {
		s.res.RepairRebalanceCrashes++
	}
}

// take removes and returns a seeded pick from list, if it has any.
func take[T any](rng *rand.Rand, list *[]T) (T, bool) {
	var v T
	if len(*list) == 0 {
		return v, false
	}
	i := rng.Intn(len(*list))
	v = (*list)[i]
	*list = append((*list)[:i], (*list)[i+1:]...)
	return v, true
}

func (s *sim) actRestart() {
	if id, ok := take(s.rng, &s.downed); ok {
		s.reboot(id, false)
	}
}

func (s *sim) reboot(id string, wipe bool) {
	if err := s.boot(id, wipe); err != nil {
		s.err = err
		return
	}
	s.res.Restarts++
}

// actWipe replaces a node's disk: the process restarts on an empty one.
func (s *sim) actWipe() {
	victim, ok := s.guardedVictim()
	if !ok {
		return
	}
	s.net.Kill(victim)
	s.reboot(victim, true)
	s.res.Wipes++
}

func (s *sim) actDegrade() {
	alive := s.aliveMembers()
	if len(alive) == 0 {
		return
	}
	s.degrade(alive[s.rng.Intn(len(alive))])
}

func (s *sim) degrade(id string) {
	s.net.Link(id).Degrade(float64(10 + s.rng.Intn(20)))
	s.slowed = append(s.slowed, id)
	s.res.Degrades++
}

func (s *sim) actHealLink() {
	if id, ok := take(s.rng, &s.slowed); ok {
		s.net.Link(id).Degrade(1)
		s.res.LinkHeals++
	}
}

// actPartition cuts the client from a member (guarded: it leaves the read
// path) or two members from each other (breaking chain forwards and
// streams instead).
func (s *sim) actPartition() {
	members := s.pushed.Cur.Members()
	if len(members) < 2 {
		return
	}
	a, b := "client", members[s.rng.Intn(len(members))].ID
	if s.rng.Intn(2) == 0 {
		if a = members[s.rng.Intn(len(members))].ID; a == b {
			return
		}
	} else if !s.safeWithout(map[string]bool{b: true}) {
		s.res.GuardSkips++
		return
	}
	if s.net.Partitioned(a, b) {
		return
	}
	s.net.Partition(a, b)
	s.cuts = append(s.cuts, [2]string{a, b})
	if a == "client" {
		s.res.ClientCuts++
	} else {
		s.res.NodeCuts++
	}
}

func (s *sim) actHealPartition() {
	if cut, ok := take(s.rng, &s.cuts); ok {
		s.net.Heal(cut[0], cut[1])
		s.res.CutHeals++
	}
}

// actMembership asks the supervisor for a join or a leave when none is in
// flight.
func (s *sim) actMembership() {
	if s.sup == nil || s.sup.Status().Phase != cluster.SupStable {
		return
	}
	cur := s.pushed.Cur
	var spares []string
	for _, id := range s.ids {
		if _, in := cur.Member(id); !in {
			spares = append(spares, id)
		}
	}
	members := cur.Members()
	if len(spares) > 0 && (s.rng.Intn(2) == 0 || len(members) <= s.cfg.Replicas) {
		if s.net.Alive(spares[0]) && s.sup.BeginJoin(cluster.Member{ID: spares[0]}) == nil {
			s.res.Joins++
		}
		return
	}
	if len(members) <= s.cfg.Replicas {
		return
	}
	if id := members[s.rng.Intn(len(members))].ID; s.net.Alive(id) && s.sup.BeginLeave(id) == nil {
		s.res.Leaves++
	}
}

// supChaos is the control plane's share of the schedule: a dead supervisor
// usually comes back; a live one may be killed, and each seed class forces
// one composed fault — 0: death mid-commit, 1: a node crash while a repair
// and a rebalance are both in flight, 2: a fail-slow head during a join.
func (s *sim) supChaos() {
	if s.sup == nil {
		if s.rng.Intn(3) != 0 {
			s.restartSup()
		}
		return
	}
	st := s.sup.Status()
	inFlight := st.Phase == cluster.SupTransition
	switch s.cfg.Seed % 3 {
	case 0:
		s.armed = s.armed || inFlight
	case 1:
		if inFlight && len(st.Quarantined) > 0 {
			s.actKill(true)
		}
	case 2:
		if inFlight && len(s.ackedList) > 0 && len(s.pushed.Next.Members()) > len(s.pushed.Cur.Members()) {
			head := s.pushed.Cur.Owners(s.ackedList[s.rng.Intn(len(s.ackedList))])[0]
			if s.net.Alive(head) {
				s.degrade(head)
				s.res.SlowJoinHeads++
			}
		}
	}
	if s.rng.Intn(12) == 0 {
		s.retireSup(true)
	}
}

// drain returns the cluster to full health — supervisor up, network
// healed, the dead restarted — and ticks until the supervisor is stable
// with nothing quarantined.
func (s *sim) drain() {
	if s.sup == nil {
		s.restartSup()
	}
	s.armed = false
	s.net.HealAll()
	s.cuts = nil
	for _, id := range s.slowed {
		s.net.Link(id).Degrade(1)
	}
	s.slowed = nil
	for _, id := range s.downed {
		s.reboot(id, false)
	}
	s.downed = nil
	for i := 0; i < 100 && s.err == nil; i++ {
		s.tick()
		if st := s.sup.Status(); st.Phase == cluster.SupStable && len(st.Quarantined) == 0 {
			return
		}
	}
	if s.err == nil {
		s.err = fmt.Errorf("churn: the supervisor did not converge after the drain: %+v", s.sup.Status())
	}
}

// finalVerify is the no-lost-write acceptance check: every acknowledged
// range must read back byte-identical to the model through the client, and
// every current owner's disk must hold a byte-identical copy.
func (s *sim) finalVerify() {
	for _, rng := range s.ackedList {
		base := int64(rng) * s.cfg.RangeBytes
		want := s.model[base : base+s.cfg.RangeBytes]
		p := make([]byte, s.cfg.RangeBytes)
		if err := s.client.ReadAt(p, base); err != nil {
			s.res.FailedOps++
		} else if !bytes.Equal(p, want) {
			s.res.VerifyErrors++
		}
		for _, id := range s.pushed.Cur.Owners(rng) {
			if s.nodes[id].disk.ReadAt(p, base) != nil || !bytes.Equal(p, want) {
				s.res.VerifyErrors++
			}
		}
	}
}
