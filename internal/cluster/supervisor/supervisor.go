// Package supervisor is the cluster's control plane and its one authority:
// it owns the epoch-versioned routing table and the quarantine, journals
// both before any node observes them, and drives the failure lifecycle from
// its own ticks — pings feeding the failure detector, quarantine of copies
// that may have missed writes, verified repair, and the three-epoch
// join/leave rebalance streamed with fleet.StreamMove.
//
// Every decision reaches the nodes as a fleet.Placement push: the table,
// the node's quarantined ranges (which it then refuses to serve, so the veto
// holds for every client, including ones that know nothing of the
// supervisor), and where to report a missed chain forward. A copy is
// quarantined when its node is classified Down, when it restarts (it
// refuses a placement that does not acknowledge the boot), when a chain
// forward misses it, and when a commit moves it.
//
// The supervisor is crash-safe: a restart from the journal resumes an
// in-flight transition or finishes an interrupted commit push. When it
// cannot act safely (no clean source, a move target down, the detector
// disagreeing with a live ping) it holds state and reports a typed Hold.
//
// It reaches members through a cluster.Transport — TCP in production, the
// churn harness's virtual links in the seeds — so the code the seeds crash
// and partition is the code that ships.
package supervisor

import (
	"cmp"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"srccache/internal/cluster"
	"srccache/internal/cluster/fleet"
	"srccache/internal/netblock"
	"srccache/internal/vtime"
)

// Node registers one member (or spare) with the supervisor: its ring
// identity and address, plus the management push that installs a
// placement on it (in-process here; the data and ping plane is the
// transport). Push must return fleet.ErrUnplaced when the node's
// ChainBackend does.
type Node struct {
	Member cluster.Member
	Push   func(p fleet.Placement) error
}

// Config parameterizes a supervisor.
type Config struct {
	// Ring is the initial committed placement (epoch 1) when no journal
	// exists; with a journal present, the journal wins.
	Ring *cluster.Ring
	// Nodes registers every node the supervisor will ever manage, including
	// spares that may join later: BeginJoin takes only a node listed here.
	Nodes []Node
	// JournalPath persists the supervisor's state ("" persists nothing: a
	// restart starts over from Ring).
	JournalPath string
	// Detector tunes fail-stop/fail-slow classification; zero values take
	// the cluster defaults.
	Detector cluster.DetectorConfig
	// Transport reaches the members and keeps the clock: fleet.TCP with
	// bounded timeouts in a deployment.
	Transport cluster.Transport
}

// Fixed tuning: repairs run one after another, so a schedule is a function
// of its inputs.
const (
	stepsPerTick      = 2  // rebalance moves streamed per tick
	maxRepairsPerTick = 8  // repairs started per tick
	repairAttempts    = 3  // tries of one repair per tick
	abortAfter        = 16 // held ticks before a transition aborts
	repairBackoff     = 25 * time.Millisecond
)

// HoldReason is the typed cause of a supervision action deliberately not
// taken this tick. Holds are the graceful-degradation surface: state is
// kept, the reason is reported, and the action is retried when conditions
// change.
type HoldReason string

const (
	// HoldTargetDown: a move's target is not healthy; the move is
	// re-queued rather than streamed at a dead node.
	HoldTargetDown HoldReason = "target-down"
	// HoldNoCleanSource: a stream or repair found no serving source
	// replica. "No clean source" must not be read as "never written" —
	// the work is retried once a copy recovers.
	HoldNoCleanSource HoldReason = "no-clean-source"
	// HoldCommitUnsafe: every move streamed, but committing now could
	// leave a range with no clean, serving owner.
	HoldCommitUnsafe HoldReason = "commit-unsafe"
	// HoldDetectorDisagree: the detector classifies a member Down, but its
	// latest ping answered — the supervisor defers quarantine until the
	// signals agree instead of acting on a flapping classification.
	HoldDetectorDisagree HoldReason = "detector-disagree"
	// HoldRepairFailed: a repair exhausted its per-tick retry budget, or
	// the copy missed a write while it was being copied; the quarantine
	// stays and the repair re-runs next tick.
	HoldRepairFailed HoldReason = "repair-failed"
)

// Hold records one deferred action. Range is -1 for node-scoped holds.
type Hold struct {
	Reason HoldReason
	Node   string
	Range  int
}

// Status is a point-in-time snapshot of the supervisor's world view and
// lifetime counters.
type Status struct {
	Epoch       uint64
	Phase       cluster.SupPhase
	Pending     int
	Quarantined []cluster.DegKey
	Down, Slow  []string
	Departing   []string // members that announced a planned shutdown
	Holds       []Hold

	Detections, Repairs, Commits, Aborts int
	Resumes, RecoveredPushes             int
	Restarts, Misses                     int // placements refused after a boot; missed forwards reported

	// DetectLatency is the last observed kill→classified-Down interval;
	// RepairLatency the last Down→quarantine-empty interval (MTTR).
	DetectLatency, RepairLatency time.Duration
}

var errClosed = errors.New("supervisor: closed")

// Supervisor is the control-plane daemon. All public methods are safe for
// concurrent use; Tick is the single supervision round Start runs
// periodically.
//
// Two locks: tickMu serializes ticks, and a tick does its network I/O —
// pings, streams, repair copies, all over its fleet's one connection per
// member — holding only tickMu; mu guards the state and is held only to
// change it, journal it and push it. A miss report or a status read
// therefore never waits on the network, and since the ping sweep runs
// before the streams and repairs, a ping never waits behind a copy.
type Supervisor struct {
	cfg Config
	tr  cluster.Transport
	fl  *fleet.Fleet // the tick's own client: pings, streams and repairs
	det *cluster.Detector

	tickMu sync.Mutex

	// committed is the committed placement, stored once it was pushed:
	// what Ring serves clients without taking a lock.
	committed atomic.Pointer[cluster.Ring]

	mu        sync.Mutex
	nodes     map[string]Node
	table     *cluster.Table // pushed to every registered node
	pending   []cluster.Move
	phase     cluster.SupPhase
	quar      map[cluster.DegKey]bool
	departing map[string]bool
	wasDown   map[string]bool
	firstFail map[string]time.Time
	downSince map[string]time.Time
	holds     []Hold
	heldTicks int

	detections, repairs, commits, aborts int
	resumes, recoveredPushes             int
	restarts, misses                     int
	detectLat, repairLat                 time.Duration

	// repairing is the copy a repair is copying with mu released; spoiled
	// records that it was quarantined anew meanwhile (a reported miss, a
	// boot), which voids the repair.
	repairing cluster.DegKey
	spoiled   bool

	stop chan struct{} // closed once, by Close; never sent on
	once sync.Once
	wg   sync.WaitGroup
}

// New builds a supervisor and pushes its table to every node. If
// cfg.JournalPath names an existing journal, the supervisor recovers from
// it — resuming an in-flight transition or finishing an interrupted commit
// push — instead of starting from cfg.Ring.
func New(cfg Config) (*Supervisor, error) {
	if cfg.Transport == nil {
		return nil, errors.New("supervisor: no transport")
	}
	s := &Supervisor{
		cfg:       cfg,
		tr:        cfg.Transport,
		det:       cluster.NewDetector(cfg.Detector),
		nodes:     make(map[string]Node),
		quar:      make(map[cluster.DegKey]bool),
		departing: make(map[string]bool),
		wasDown:   make(map[string]bool),
		firstFail: make(map[string]time.Time),
		downSince: make(map[string]time.Time),
		stop:      make(chan struct{}),
	}
	for _, n := range cfg.Nodes {
		if n.Member.ID == "" || n.Push == nil {
			return nil, fmt.Errorf("supervisor: node %+v needs an ID and a push", n.Member)
		}
		s.nodes[n.Member.ID] = n
	}

	journal, err := s.loadJournal()
	if err != nil {
		return nil, err
	}
	switch {
	case journal != nil:
		if err := s.recover(*journal); err != nil {
			return nil, err
		}
	case cfg.Ring != nil:
		s.table = &cluster.Table{Epoch: 1, Cur: cfg.Ring}
		s.phase = cluster.SupStable
		if err := s.persistLocked(s.table, nil, cluster.SupStable); err != nil {
			return nil, err
		}
	default:
		return nil, fmt.Errorf("supervisor: no initial ring and no journal at %q", cfg.JournalPath)
	}

	if s.fl, err = fleet.NewWith(s.table.Cur, s.tr); err != nil {
		return nil, err
	}
	// A fresh cluster's nodes have nothing to protect yet: the first
	// placement acknowledges their boot.
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.pushAllLocked(journal == nil); err != nil {
		return nil, err
	}
	return s, nil
}

// loadJournal reads the persisted journal, if any.
func (s *Supervisor) loadJournal() (*journal, error) {
	if s.cfg.JournalPath == "" {
		return nil, nil
	}
	data, err := os.ReadFile(s.cfg.JournalPath)
	if errors.Is(err, os.ErrNotExist) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("supervisor: read journal: %w", err)
	}
	j, err := decodeJournal(data)
	if err != nil {
		return nil, err
	}
	return &j, nil
}

// recover adopts journaled state. Resume-vs-abort rules:
//   - stable: adopt; New re-pushes (idempotent).
//   - push: a commit/abort was decided but its push may be partial —
//     finish it (New's push) and journal stable.
//   - transition: resume streaming if every member of the target
//     placement is registered; otherwise abort at a fresh epoch. Nothing
//     was committed, so aborting only discards streamed garbage.
func (s *Supervisor) recover(j journal) error {
	table, err := j.table()
	if err != nil {
		return err
	}
	s.table, s.pending, s.phase = table, j.Pending, j.Phase
	for _, k := range j.Quarantined {
		s.quar[k] = true
	}
	switch j.Phase {
	case cluster.SupPush:
		// The record's pending moves are the commit's moved copies, which
		// its quarantine list holds too.
		s.pending, s.phase = nil, cluster.SupStable
		s.recoveredPushes++
		return s.persistLocked(s.table, nil, cluster.SupStable)
	case cluster.SupTransition:
		for _, m := range table.Next.Members() {
			if _, ok := s.nodes[m.ID]; !ok {
				// The target placement names a node this supervisor cannot
				// manage: resuming could stream at an address nobody
				// registered. Abort cleanly instead.
				s.table = &cluster.Table{Epoch: table.Epoch + 1, Cur: table.Cur}
				s.pending, s.phase = nil, cluster.SupStable
				s.aborts++
				return s.persistLocked(s.table, nil, cluster.SupStable)
			}
		}
		s.resumes++
	}
	return nil
}

// Ring returns the committed placement — the refetch source fleet clients
// install with SetControl, consulted by every write. It takes no lock.
func (s *Supervisor) Ring() *cluster.Ring { return s.committed.Load() }

// Start runs Tick every interval until Close.
func (s *Supervisor) Start(every time.Duration) {
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		t := time.NewTicker(every) //srclint:allow determinism the daemon's own timer; harnesses call Tick
		defer t.Stop()
		for {
			select {
			case <-t.C:
				_, _ = s.Tick()
			case <-s.stop:
				return
			}
		}
	}()
}

// Close stops the tick loop and closes its fleet's connections. A
// closed supervisor accepts no more miss reports, so nodes refuse the
// writes they cannot report.
func (s *Supervisor) Close() error {
	s.once.Do(func() { close(s.stop) })
	s.wg.Wait()
	s.tickMu.Lock()
	defer s.tickMu.Unlock()
	return s.fl.Close()
}

// pingResult is one node's probe outcome this tick.
type pingResult struct {
	info netblock.PingInfo
	lat  time.Duration
	err  error
}

// Tick runs one supervision round: ping sweep, classification and
// quarantine, re-push to nodes behind the table, rebalance progress, and
// repair. It returns the post-tick status; tests and the churn harness
// drive it directly, Start drives it on a timer.
func (s *Supervisor) Tick() (Status, error) {
	s.tickMu.Lock()
	defer s.tickMu.Unlock()
	infos := s.pingSweep()
	err := s.classify(infos)
	if err == nil {
		err = s.advance(infos)
	}
	if err == nil {
		err = s.repair(infos)
	}
	return s.Status(), err
}

// registeredIDs returns every registered node ID, sorted.
func (s *Supervisor) registeredIDs() []string {
	ids := make([]string, 0, len(s.nodes))
	for id := range s.nodes {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	return ids
}

// pingSweep probes every registered node, timing each round trip for the
// detector.
func (s *Supervisor) pingSweep() map[string]pingResult {
	s.mu.Lock()
	var members []cluster.Member
	for _, id := range s.registeredIDs() {
		members = append(members, s.nodes[id].Member)
	}
	s.mu.Unlock()
	out := make(map[string]pingResult, len(members))
	for _, m := range members {
		start := s.tr.Now()
		info, err := s.fl.Ping(m)
		out[m.ID] = pingResult{info: info, lat: s.tr.Now().Sub(start), err: err}
	}
	return out
}

// memberIDsLocked returns the members of the current and pending
// placements, sorted.
func (s *Supervisor) memberIDsLocked() []string {
	var ids []string
	for _, r := range []*cluster.Ring{s.table.Cur, s.table.Next} {
		if r == nil {
			continue
		}
		for _, m := range r.Members() {
			if !slices.Contains(ids, m.ID) {
				ids = append(ids, m.ID)
			}
		}
	}
	sort.Strings(ids)
	return ids
}

// classify resets the tick's holds, feeds the sweep into the detector,
// quarantines newly Down members, and re-pushes the nodes behind the table.
// A member that announced a planned drain is reclassified as departing: its
// later silence is a scheduled departure, not a fail-stop, so it
// accumulates no failure run and triggers no quarantine.
func (s *Supervisor) classify(infos map[string]pingResult) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.holds = s.holds[:0]
	now := s.tr.Now()
	for _, id := range s.registeredIDs() {
		r := infos[id]
		switch {
		case r.err == nil && r.info.Draining:
			if !s.departing[id] {
				s.departing[id] = true
				s.det.Forget(id)
				s.firstFail[id] = time.Time{}
			}
		case s.departing[id]:
			if r.err == nil {
				// Back without the drain flag: the planned restart
				// completed; observe it fresh.
				delete(s.departing, id)
				s.det.ObserveOK(id)
			}
		case r.err != nil:
			if s.firstFail[id].IsZero() {
				s.firstFail[id] = now
			}
			s.det.Observe(id, 0, true)
		default:
			s.det.Observe(id, vtime.FromStd(r.lat), false)
		}
	}
	for _, id := range s.memberIDsLocked() {
		if s.det.State(id) != cluster.Down {
			if s.wasDown[id] {
				delete(s.wasDown, id)
				s.firstFail[id] = time.Time{}
			}
			continue
		}
		if s.wasDown[id] {
			continue
		}
		if r, ok := infos[id]; ok && r.err == nil {
			// The detector says Down but the node just answered: signals
			// disagree — hold instead of quarantining a member that is
			// visibly serving.
			s.holdLocked(HoldDetectorDisagree, id, -1)
			continue
		}
		s.wasDown[id] = true
		s.detections++
		s.downSince[id] = now
		if !s.firstFail[id].IsZero() {
			s.detectLat = now.Sub(s.firstFail[id])
		}
		// While it is away it misses every write.
		if err := s.quarantineLocked(s.ownedLocked(id)); err != nil {
			return err
		}
	}
	return s.repushLocked(infos)
}

// ownedLocked lists id's copies under the current placement.
func (s *Supervisor) ownedLocked(id string) []cluster.DegKey {
	var keys []cluster.DegKey
	for rng := 0; rng < s.table.Cur.Ranges; rng++ {
		if s.table.Cur.OwnedBy(rng, id) {
			keys = append(keys, cluster.DegKey{Node: id, Range: rng})
		}
	}
	return keys
}

// quarantineLocked adds copies to the quarantine, journals the set, and
// only then pushes the nodes it touched.
func (s *Supervisor) quarantineLocked(keys []cluster.DegKey) error {
	var touched []string
	for _, k := range keys {
		if s.markLocked(k) {
			touched = append(touched, k.Node)
		}
	}
	return s.publishLocked(touched)
}

// markLocked quarantines copy k, reporting whether it was clean. Marking
// the copy a repair is copying voids that repair.
func (s *Supervisor) markLocked(k cluster.DegKey) bool {
	s.spoiled = s.spoiled || k == s.repairing
	clean := !s.quar[k]
	s.quar[k] = true
	return clean
}

// publishLocked journals a changed quarantine, then pushes it to the nodes
// whose copies it touched.
func (s *Supervisor) publishLocked(touched []string) error {
	if len(touched) == 0 {
		return nil
	}
	if err := s.persistLocked(s.table, s.pending, s.phase); err != nil {
		return err
	}
	for _, id := range s.registeredIDs() {
		if !slices.Contains(touched, id) {
			continue
		}
		if _, err := s.pushNodeLocked(id, false, nil); err != nil {
			return err
		}
	}
	return nil
}

// placementLocked is what node id is told: the table, its quarantined
// ranges, and where to report a missed forward.
func (s *Supervisor) placementLocked(id string, restarted bool) fleet.Placement {
	var quar []int
	for _, k := range s.quarKeysLocked() {
		if k.Node == id {
			quar = append(quar, k.Range)
		}
	}
	return fleet.Placement{Table: s.table, Quarantined: quar, Report: s.ReportMiss, Restarted: restarted}
}

// pushNodeLocked installs node id's placement, carrying fill's repair bytes
// if any, and returns the push's own failure as pushErr; err is a journal
// failure. A node that refuses the placement with fleet.ErrUnplaced has
// booted since its last one — with a disk that may have missed writes while
// it was down, and maybe skipped by a client's failover, which no chain
// forward reports — so every copy it owns is quarantined and journaled
// before the placement is pushed again, acknowledging the boot. Callers
// other than a repair leave failed pushes to the per-tick re-push.
func (s *Supervisor) pushNodeLocked(id string, restarted bool, fill map[int][]byte) (pushErr, err error) {
	n, ok := s.nodes[id]
	if !ok {
		return nil, nil
	}
	p := s.placementLocked(id, restarted)
	p.Fill = fill
	if pushErr = n.Push(p); restarted || !errors.Is(pushErr, fleet.ErrUnplaced) {
		return pushErr, nil
	}
	s.restarts++
	for _, k := range s.ownedLocked(id) {
		s.markLocked(k)
	}
	if err := s.persistLocked(s.table, s.pending, s.phase); err != nil {
		return nil, err
	}
	return s.pushNodeLocked(id, true, fill)
}

// pushAllLocked installs the table on every registered node and on the
// supervisor's own data-path client, then serves its placement to Ring.
func (s *Supervisor) pushAllLocked(restarted bool) error {
	for _, id := range s.registeredIDs() {
		if _, err := s.pushNodeLocked(id, restarted, nil); err != nil {
			return err
		}
	}
	s.committed.Store(s.table.Cur)
	return s.fl.SetRing(s.table.Cur)
}

// repushLocked heals nodes behind the table through the ping channel: any
// healthy, non-departing node advertising an older epoch gets its
// placement again — how a restarted node rejoins the routing (and is
// caught restarting) without a management protocol.
func (s *Supervisor) repushLocked(infos map[string]pingResult) error {
	for _, id := range s.registeredIDs() {
		r := infos[id]
		if r.err != nil || r.info.Draining || r.info.Epoch >= s.table.Epoch {
			continue
		}
		if _, err := s.pushNodeLocked(id, false, nil); err != nil {
			return err
		}
	}
	return nil
}

// ReportMiss records that member node missed a write of range rng — the
// Placement.Report every node gets for its chain forwards, and the report
// a fleet client makes about an owner it failed over past (SetControl).
// The copy is quarantined, journaled and pushed before ReportMiss returns,
// so the reporting write is acknowledged only once no read is served from
// the copy. It waits for state changes only: no tick holds mu across the
// network. A range outside the ring is refused, never journaled.
func (s *Supervisor) ReportMiss(node string, rng int) error {
	select {
	case <-s.stop:
		return errClosed
	default:
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if rng < 0 || rng >= s.table.Cur.Ranges {
		return fmt.Errorf("supervisor: miss of range %d outside [0, %d)", rng, s.table.Cur.Ranges)
	}
	s.misses++
	return s.quarantineLocked([]cluster.DegKey{{Node: node, Range: rng}})
}

// holdLocked records a typed deferred action.
func (s *Supervisor) holdLocked(reason HoldReason, node string, rng int) {
	s.holds = append(s.holds, Hold{Reason: reason, Node: node, Range: rng})
}

// refreshFleet re-syncs the data-path client to the committed placement
// after a node refused an op at a stale epoch. The supervisor is the epoch
// authority, so a refusal means its own client view lagged; the table
// itself never moves in response.
func (s *Supervisor) refreshFleet() { _ = s.fl.SetRing(s.Ring()) }

// persistLocked writes a journal record — the table, pending moves and the
// quarantine — durably (writeDurable) before the state it records takes
// effect anywhere.
func (s *Supervisor) persistLocked(t *cluster.Table, pending []cluster.Move, phase cluster.SupPhase) error {
	data, err := encodeJournal(newJournal(t, pending, phase, s.quarKeysLocked()))
	if err != nil {
		return err
	}
	if s.cfg.JournalPath == "" {
		return nil
	}
	return writeDurable(s.cfg.JournalPath, data)
}

// writeDurable replaces path with data so that a power cut leaves the old
// file or the new one: the temp file is synced before the rename, and the
// directory after it, so the rename itself persists.
func writeDurable(path string, data []byte) error {
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	_, err = f.Write(data)
	if err = errors.Join(err, f.Sync(), f.Close()); err == nil {
		err = os.Rename(tmp, path)
	}
	if err != nil {
		return err
	}
	dir, err := os.Open(filepath.Dir(path))
	if err != nil {
		return err
	}
	return errors.Join(dir.Sync(), dir.Close())
}

// quarKeysLocked returns the quarantine, sorted.
func (s *Supervisor) quarKeysLocked() []cluster.DegKey {
	keys := make([]cluster.DegKey, 0, len(s.quar))
	for k := range s.quar {
		keys = append(keys, k)
	}
	slices.SortFunc(keys, func(a, b cluster.DegKey) int {
		return cmp.Or(cmp.Compare(a.Node, b.Node), cmp.Compare(a.Range, b.Range))
	})
	return keys
}

// healthyLocked reports whether a node can be an actor in a transition
// step right now.
func (s *Supervisor) healthyLocked(id string, infos map[string]pingResult) bool {
	if s.departing[id] {
		return false
	}
	if r, ok := infos[id]; !ok || r.err != nil {
		return false
	}
	return s.det.State(id) != cluster.Down
}

// advance pushes an in-flight transition forward: stream up to
// stepsPerTick pending moves, commit when the pending set is empty and
// committing is safe, abort when held too long. A stream runs with mu
// released; only the tick changes a transition once it has begun, so the
// move streamed is still the head of pending when the lock is retaken.
func (s *Supervisor) advance(infos map[string]pingResult) error {
	progressed := false
	for i := 0; i < stepsPerTick; i++ {
		mv, cur, next, ok := s.nextMove(infos)
		if !ok {
			break
		}
		err := s.fl.StreamMove(cur, next, mv)
		if errors.Is(err, netblock.ErrStaleEpoch) {
			s.refreshFleet()
		}
		if jerr := s.streamed(mv, err); jerr != nil {
			return jerr
		}
		progressed = progressed || err == nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.phase != cluster.SupTransition {
		return nil
	}
	if len(s.pending) == 0 {
		if s.commitSafeLocked(infos) {
			return s.decideLocked(s.table.Next)
		}
		s.holdLocked(HoldCommitUnsafe, "", -1)
	}
	if progressed {
		s.heldTicks = 0
	} else if s.heldTicks++; s.heldTicks > abortAfter {
		return s.decideLocked(s.table.Cur)
	}
	return nil
}

// nextMove returns the transition's next move to stream with the placements
// it streams between, or re-queues the move with a hold when its target is
// not healthy.
func (s *Supervisor) nextMove(infos map[string]pingResult) (mv cluster.Move, cur, next *cluster.Ring, ok bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.phase != cluster.SupTransition || len(s.pending) == 0 {
		return mv, nil, nil, false
	}
	mv = s.pending[0]
	if !s.healthyLocked(mv.Target, infos) {
		s.holdLocked(HoldTargetDown, mv.Target, mv.Range)
		s.pending = append(s.pending[1:], mv)
		return mv, nil, nil, false
	}
	return mv, s.table.Cur, s.table.Next, true
}

// streamed books a stream's outcome: a failed move goes to the back of
// pending with a hold, a streamed one leaves it and is journaled.
func (s *Supervisor) streamed(mv cluster.Move, err error) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.pending = s.pending[1:]
	if err != nil {
		s.holdLocked(HoldNoCleanSource, mv.Target, mv.Range)
		s.pending = append(s.pending, mv)
		return nil
	}
	return s.persistLocked(s.table, s.pending, cluster.SupTransition)
}

// commitSafeLocked: every member of the new placement must be healthy and
// staying, and every range must keep a serving owner that is not a moved
// copy — a commit quarantines the moved copies, so without one the range
// would have nobody to read from or to repair them.
func (s *Supervisor) commitSafeLocked(infos map[string]pingResult) bool {
	next := s.table.Next
	for _, m := range next.Members() {
		if !s.healthyLocked(m.ID, infos) {
			return false
		}
	}
	for rng := 0; rng < next.Ranges; rng++ {
		ok := false
		for _, id := range next.Owners(rng) {
			ok = ok || (s.table.Cur.OwnedBy(rng, id) && !s.quar[cluster.DegKey{Node: id, Range: rng}])
		}
		if !ok {
			return false
		}
	}
	return true
}

// decideLocked ends the transition with ring as the placement: Next
// commits, Cur aborts. Ordering is the crash-safety contract: journal the
// decided table first (phase push, with the quarantine), then push — a
// crash between the two re-pushes on recovery instead of re-deciding, so no
// node ever holds an epoch the journal does not.
func (s *Supervisor) decideLocked(ring *cluster.Ring) error {
	commit := ring == s.table.Next
	decided := &cluster.Table{Epoch: s.table.Epoch + 1, Cur: ring}
	moved := cluster.Moves(s.table.Cur, ring)
	// Mid-transition writes reached the old chain only: each moved copy
	// is quarantined until a verified repair from a surviving replica.
	for _, mv := range moved {
		s.markLocked(cluster.DegKey{Node: mv.Target, Range: mv.Range})
	}
	if err := s.persistLocked(decided, moved, cluster.SupPush); err != nil {
		return err
	}
	departed := s.table.Cur.Members()
	s.table, s.pending, s.phase, s.heldTicks = decided, nil, cluster.SupStable, 0
	if err := s.pushAllLocked(false); err != nil {
		return err
	}
	// Members that left the placement stop being supervised.
	for _, m := range departed {
		if _, still := ring.Member(m.ID); !still {
			s.det.Forget(m.ID)
			delete(s.departing, m.ID)
		}
	}
	if commit {
		s.commits++
	} else {
		s.aborts++
	}
	return s.persistLocked(s.table, nil, cluster.SupStable)
}

// BeginJoin starts pulling a registered node into the placement.
func (s *Supervisor) BeginJoin(m cluster.Member) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.nodes[m.ID]; !ok {
		return fmt.Errorf("supervisor: joining node %q not registered", m.ID)
	}
	if s.phase != cluster.SupStable {
		return fmt.Errorf("supervisor: rebalance already in flight")
	}
	next, err := s.table.Cur.WithJoin(m)
	if err != nil {
		return err
	}
	return s.beginLocked(next)
}

// BeginLeave starts a graceful departure: the member keeps serving while
// its ranges stream to their new owners.
func (s *Supervisor) BeginLeave(id string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.phase != cluster.SupStable {
		return fmt.Errorf("supervisor: rebalance already in flight")
	}
	next, err := s.table.Cur.WithLeave(id)
	if err != nil {
		return err
	}
	return s.beginLocked(next)
}

// beginLocked journals the transition, then pushes it: the nodes must know
// the next placement for its new owners to accept the streamed moves.
func (s *Supervisor) beginLocked(next *cluster.Ring) error {
	table := &cluster.Table{Epoch: s.table.Epoch + 1, Cur: s.table.Cur, Next: next}
	pending := cluster.Moves(s.table.Cur, next)
	if err := s.persistLocked(table, pending, cluster.SupTransition); err != nil {
		return err
	}
	s.table, s.pending, s.phase, s.heldTicks = table, pending, cluster.SupTransition, 0
	return s.pushAllLocked(false)
}

// repair runs verified repairs for quarantined copies whose node answers
// pings, one after another.
func (s *Supervisor) repair(infos map[string]pingResult) error {
	todo, err := s.repairable(infos)
	for _, k := range todo {
		if err != nil {
			break
		}
		err = s.repairCopy(k)
	}
	return err
}

// repairable picks up to maxRepairsPerTick quarantined copies whose node
// answers pings. A node that no longer owns the range sheds its mark
// without traffic (membership moved on), journaled, then pushed.
func (s *Supervisor) repairable(infos map[string]pingResult) ([]cluster.DegKey, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	var todo []cluster.DegKey
	var touched []string
	for _, k := range s.quarKeysLocked() {
		switch {
		case !s.table.Cur.OwnedBy(k.Range, k.Node):
			delete(s.quar, k)
			touched = append(touched, k.Node)
		case len(todo) < maxRepairsPerTick && s.healthyLocked(k.Node, infos):
			todo = append(todo, k)
		}
	}
	return todo, s.publishLocked(touched)
}

// repairCopy copies one quarantined copy back from a clean owner, with mu
// released and per-repair retry and backoff. The bytes reach the copy
// through its push, still quarantined; the quarantine lifts — journaled,
// then pushed — once the copy is verified, unless the copy was quarantined
// anew while it was copied, which leaves it for the next tick.
func (s *Supervisor) repairCopy(k cluster.DegKey) error {
	s.mu.Lock()
	s.repairing, s.spoiled = k, false
	s.mu.Unlock()
	fill := func(data []byte) error {
		s.mu.Lock()
		defer s.mu.Unlock()
		pushErr, err := s.pushNodeLocked(k.Node, false, map[int][]byte{k.Range: data})
		return errors.Join(err, pushErr)
	}
	var err error
	for attempt := 0; attempt < repairAttempts; attempt++ {
		if err = s.fl.RepairRange(k.Node, k.Range, fill); err == nil || errors.Is(err, fleet.ErrNoSourceReplica) {
			break
		}
		if errors.Is(err, netblock.ErrStaleEpoch) {
			s.refreshFleet()
		}
		s.tr.Sleep(repairBackoff << attempt)
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	spoiled := s.spoiled
	s.repairing, s.spoiled = cluster.DegKey{}, false
	switch {
	case errors.Is(err, fleet.ErrNoSourceReplica):
		s.holdLocked(HoldNoCleanSource, k.Node, k.Range)
		return nil
	case err != nil || spoiled:
		s.holdLocked(HoldRepairFailed, k.Node, k.Range)
		return nil
	}
	delete(s.quar, k)
	s.repairs++
	healed := !slices.ContainsFunc(s.quarKeysLocked(), func(q cluster.DegKey) bool { return q.Node == k.Node })
	if since, ok := s.downSince[k.Node]; ok && healed {
		s.repairLat = s.tr.Now().Sub(since)
		delete(s.downSince, k.Node)
	}
	return s.publishLocked([]string{k.Node})
}

// Quarantined reports whether a copy is currently quarantined.
func (s *Supervisor) Quarantined(node string, rng int) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.quar[cluster.DegKey{Node: node, Range: rng}]
}

// Status snapshots the supervisor's current view.
func (s *Supervisor) Status() Status {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.statusLocked()
}

func (s *Supervisor) statusLocked() Status {
	st := Status{
		Epoch:           s.table.Epoch,
		Phase:           s.phase,
		Pending:         len(s.pending),
		Quarantined:     s.quarKeysLocked(),
		Detections:      s.detections,
		Repairs:         s.repairs,
		Commits:         s.commits,
		Aborts:          s.aborts,
		Resumes:         s.resumes,
		RecoveredPushes: s.recoveredPushes,
		Restarts:        s.restarts,
		Misses:          s.misses,
		DetectLatency:   s.detectLat,
		RepairLatency:   s.repairLat,
		Holds:           append([]Hold(nil), s.holds...),
	}
	for id := range s.departing {
		st.Departing = append(st.Departing, id)
	}
	sort.Strings(st.Departing)
	st.Down, st.Slow = s.det.Classified()
	return st
}
