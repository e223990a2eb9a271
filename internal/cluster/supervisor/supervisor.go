// Package supervisor is the autonomous control plane for a real-TCP
// netblock fleet: a long-running daemon that owns the authoritative
// epoch-versioned routing table and drives the full failure lifecycle the
// simulation's harness used to drive by hand — periodic pings feeding the
// cluster failure detector (wall-clock latencies scored against the same
// EWMA thresholds), quarantine of replicas that missed writes while down,
// hash-verified repair scheduling with bounded concurrency and
// retry/backoff, and the three-epoch join/leave rebalance executed with
// fleet.StreamMove against live servers.
//
// The supervisor is crash-safe: every placement transition is journaled
// (cluster.SupJournal) before any node observes it, so a restart
// mid-rebalance resumes the stream — or finishes an interrupted commit
// push — without violating the clean-head invariant. When it cannot act
// safely (no clean source, a move target down, the detector disagreeing
// with a live ping) it holds state and surfaces a typed Hold instead of
// wedging or guessing.
//
// Epoch distribution reuses the existing ping/SetEpoch channel: nodes
// advertise their epoch in every ping answer, and the supervisor re-pushes
// the committed table to any healthy member advertising a stale epoch —
// there is deliberately no management op in the wire protocol.
package supervisor

import (
	"errors"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"

	"srccache/internal/cluster"
	"srccache/internal/cluster/fleet"
	"srccache/internal/netblock"
	"srccache/internal/vtime"
)

// Node registers one fleet member (or spare) with the supervisor: its ring
// identity/address plus the management push the supervisor installs
// committed placements through. Push is in-process (SetRing + SetEpoch on
// the node's chain backend and server); the data/ping plane is real TCP.
type Node struct {
	Member cluster.Member
	Push   func(ring *cluster.Ring, epoch uint64) error
}

// Config parameterizes a supervisor.
type Config struct {
	// Ring is the initial committed placement (epoch 1) when no journal
	// exists; with a journal present, the journal wins.
	Ring *cluster.Ring
	// Nodes registers every dialable node, including spares that may join
	// later. More can be added with Register.
	Nodes []Node
	// JournalPath persists the supervisor's state ("" keeps it in memory —
	// crash-safe only across Tick boundaries, not process restarts).
	JournalPath string
	// Detector tunes fail-stop/fail-slow classification; zero values take
	// the cluster defaults.
	Detector cluster.DetectorConfig
	// Client sets the dial/request timeouts for pings and repair streams.
	Client netblock.ClientOptions
	// RepairConcurrency bounds simultaneous repair streams (default 2).
	RepairConcurrency int
	// RepairAttempts bounds retries of one repair per tick (default 3).
	RepairAttempts int
	// RepairBackoff is the base backoff between repair retries, doubling
	// per attempt (default 25ms).
	RepairBackoff time.Duration
	// StepsPerTick bounds rebalance moves streamed per tick (default 2).
	StepsPerTick int
	// MaxRepairsPerTick bounds repairs started per tick (default 8).
	MaxRepairsPerTick int
	// AbortAfter is how many consecutive held ticks an in-flight
	// transition survives before the supervisor aborts it (default 16).
	AbortAfter int
	// Sleep replaces time.Sleep for repair backoff (tests inject a no-op).
	Sleep func(time.Duration)
}

func (c Config) withDefaults() Config {
	if c.RepairConcurrency <= 0 {
		c.RepairConcurrency = 2
	}
	if c.RepairAttempts <= 0 {
		c.RepairAttempts = 3
	}
	if c.RepairBackoff <= 0 {
		c.RepairBackoff = 25 * time.Millisecond
	}
	if c.StepsPerTick <= 0 {
		c.StepsPerTick = 2
	}
	if c.MaxRepairsPerTick <= 0 {
		c.MaxRepairsPerTick = 8
	}
	if c.AbortAfter <= 0 {
		c.AbortAfter = 16
	}
	if c.Client.DialTimeout <= 0 {
		c.Client.DialTimeout = 500 * time.Millisecond
	}
	if c.Client.Timeout <= 0 {
		c.Client.Timeout = 2 * time.Second
	}
	if c.Sleep == nil {
		c.Sleep = time.Sleep
	}
	return c
}

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
	// HoldCommitUnsafe: every move streamed, but a target regressed; the
	// commit waits rather than strand a range on degraded copies.
	HoldCommitUnsafe HoldReason = "commit-unsafe"
	// HoldDetectorDisagree: the detector classifies a member Down, but its
	// latest ping answered — the supervisor defers quarantine until the
	// signals agree instead of acting on a flapping classification.
	HoldDetectorDisagree HoldReason = "detector-disagree"
	// HoldRepairFailed: a repair exhausted its per-tick retry budget; the
	// quarantine stays and the repair re-runs next tick.
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

	// DetectLatency is the last observed kill→classified-Down interval;
	// RepairLatency the last Down→quarantine-empty interval (MTTR).
	DetectLatency, RepairLatency time.Duration
}

// errCrashed is returned by Tick after a test failpoint killed the
// supervisor mid-transition; a real deployment never sees it.
var errCrashed = errors.New("supervisor: crashed at failpoint")

// Supervisor is the control-plane daemon. All public methods are safe for
// concurrent use; Tick is the single supervision round Start runs
// periodically.
type Supervisor struct {
	cfg Config
	fl  *fleet.Fleet
	det *cluster.Detector

	mu          sync.Mutex
	nodes       map[string]Node
	conns       map[string]*netblock.Client // ping connections
	table       *cluster.Table
	pending     []cluster.Move
	phase       cluster.SupPhase
	pushed      uint64 // last stable epoch pushed to nodes
	quar        map[cluster.DegKey]int
	departing   map[string]bool
	wasDown     map[string]bool
	firstFail   map[string]time.Time
	downSince   map[string]time.Time
	holds       []Hold
	heldTicks   int
	dead        bool
	lastJournal []byte // in-memory journal when JournalPath is ""

	detections, repairs, commits, aborts int
	resumes, recoveredPushes             int
	detectLat, repairLat                 time.Duration

	// failpoint lets crash tests kill the supervisor at a named point
	// (set only from in-package tests; nil in production).
	failpoint func(point string) bool

	stop chan struct{} // closed once, by Close; never sent on
	once sync.Once
	wg   sync.WaitGroup
}

// New builds a supervisor. If cfg.JournalPath names an existing journal,
// the supervisor recovers from it — resuming an in-flight transition or
// finishing an interrupted commit push — instead of starting from
// cfg.Ring.
func New(cfg Config) (*Supervisor, error) {
	cfg = cfg.withDefaults()
	s := &Supervisor{
		cfg:       cfg,
		det:       cluster.NewDetector(cfg.Detector),
		nodes:     make(map[string]Node),
		conns:     make(map[string]*netblock.Client),
		quar:      make(map[cluster.DegKey]int),
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
		s.pushed = s.table.Epoch
		if err := s.persistLocked(cluster.SnapshotSupJournal(s.table, nil, cluster.SupStable)); err != nil {
			return nil, err
		}
	default:
		return nil, fmt.Errorf("supervisor: no initial ring and no journal at %q", cfg.JournalPath)
	}

	fl, err := fleet.New(s.table.Cur, cfg.Client)
	if err != nil {
		return nil, err
	}
	s.fl = fl
	s.pushAllLocked()
	return s, nil
}

// loadJournal reads the persisted journal, if any.
func (s *Supervisor) loadJournal() (*cluster.SupJournal, error) {
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
	j, err := cluster.DecodeSupJournal(data)
	if err != nil {
		return nil, err
	}
	return &j, nil
}

// recover adopts journaled state. Resume-vs-abort rules:
//   - stable: adopt and re-push lazily (epoch self-heal).
//   - push: a commit/abort was decided but its push may be partial —
//     finish it (re-push is idempotent) and journal stable.
//   - transition: resume streaming if every member of the target
//     placement is registered; otherwise abort at a fresh epoch. Nothing
//     was committed, so aborting only discards streamed garbage.
func (s *Supervisor) recover(j cluster.SupJournal) error {
	table, pending, err := j.Table()
	if err != nil {
		return err
	}
	s.table, s.pending, s.phase = table, pending, j.Phase
	switch j.Phase {
	case cluster.SupStable:
		s.pushed = table.Epoch
	case cluster.SupPush:
		// The decided table is stable-shaped; the pushes happen below in
		// New (pushAllLocked), after which the journal records stable. The
		// record's pending moves are the commit's moved copies: re-adopt
		// their quarantine so the crash cannot skip catch-up verification.
		for _, mv := range pending {
			s.quar[cluster.DegKey{Node: mv.Target, Range: mv.Range}] = 0
		}
		s.pending = nil
		s.pushed = table.Epoch
		s.phase = cluster.SupStable
		if err := s.persistLocked(cluster.SnapshotSupJournal(s.table, nil, cluster.SupStable)); err != nil {
			return err
		}
		s.recoveredPushes++
	case cluster.SupTransition:
		s.pushed = table.Epoch - 1 // nodes never saw the transition epoch
		for _, m := range table.Next.Members() {
			if _, ok := s.nodes[m.ID]; !ok {
				// The target placement names a node this supervisor cannot
				// manage: resuming could stream at an address nobody
				// registered. Abort cleanly instead.
				s.table = &cluster.Table{Epoch: table.Epoch + 1, Cur: table.Cur}
				s.pending = nil
				s.phase = cluster.SupStable
				s.pushed = s.table.Epoch
				s.aborts++
				return s.persistLocked(cluster.SnapshotSupJournal(s.table, nil, cluster.SupStable))
			}
		}
		s.resumes++
	}
	return nil
}

// Register adds a node (typically a spare that will join later).
func (s *Supervisor) Register(n Node) error {
	if n.Member.ID == "" || n.Push == nil {
		return fmt.Errorf("supervisor: node %+v needs an ID and a push", n.Member)
	}
	s.mu.Lock()
	s.nodes[n.Member.ID] = n
	s.mu.Unlock()
	return nil
}

// Ring returns the committed placement — the refetch source fleet clients
// install with SetRefetch.
func (s *Supervisor) Ring() *cluster.Ring {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.table.Cur
}

// Epoch returns the authoritative table epoch.
func (s *Supervisor) Epoch() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.table.Epoch
}

// Start runs Tick every interval until Close.
func (s *Supervisor) Start(every time.Duration) {
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		t := time.NewTicker(every)
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

// Close stops the tick loop and closes the supervisor's connections.
func (s *Supervisor) Close() error {
	s.once.Do(func() { close(s.stop) })
	s.wg.Wait()
	s.mu.Lock()
	conns := s.conns
	s.conns = make(map[string]*netblock.Client)
	s.mu.Unlock()
	for _, c := range conns {
		c.Close()
	}
	return s.fl.Close()
}

// pingResult is one node's probe outcome this tick.
type pingResult struct {
	info netblock.PingInfo
	lat  time.Duration
	err  error
}

// Tick runs one supervision round: ping sweep, classification and
// quarantine, stale-epoch re-push, rebalance progress, and repair. It
// returns the post-tick status; tests drive it directly for determinism,
// Start drives it on a timer.
func (s *Supervisor) Tick() (Status, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.dead {
		return s.statusLocked(), errCrashed
	}
	s.holds = s.holds[:0]
	infos := s.pingSweepLocked()
	s.classifyLocked(infos)
	s.repushLocked(infos)
	if err := s.advanceLocked(infos); err != nil {
		return s.statusLocked(), err
	}
	s.repairLocked(infos)
	return s.statusLocked(), nil
}

// registeredIDs returns every registered node ID, sorted for
// deterministic sweep order.
func (s *Supervisor) registeredIDs() []string {
	ids := make([]string, 0, len(s.nodes))
	for id := range s.nodes {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	return ids
}

// pingSweepLocked probes every registered node over TCP, timing each
// round trip for the detector.
func (s *Supervisor) pingSweepLocked(ids ...string) map[string]pingResult {
	if len(ids) == 0 {
		ids = s.registeredIDs()
	}
	out := make(map[string]pingResult, len(ids))
	for _, id := range ids {
		start := time.Now()
		info, err := s.pingLocked(id)
		out[id] = pingResult{info: info, lat: time.Since(start), err: err}
	}
	return out
}

// pingLocked probes one node on a cached connection, redialing on first
// use or after a failure drop.
func (s *Supervisor) pingLocked(id string) (netblock.PingInfo, error) {
	c := s.conns[id]
	if c == nil {
		n, ok := s.nodes[id]
		if !ok {
			return netblock.PingInfo{}, fmt.Errorf("supervisor: unknown node %q", id)
		}
		var err error
		c, err = netblock.DialOptions(n.Member.Addr, s.cfg.Client)
		if err != nil {
			return netblock.PingInfo{}, err
		}
		s.conns[id] = c
	}
	info, err := c.Ping()
	if err != nil {
		delete(s.conns, id)
		c.Close()
	}
	return info, err
}

// classifyLocked feeds the sweep into the detector and quarantines newly
// Down members. A member that announced a planned drain is reclassified as
// departing: its later silence is a scheduled departure, not a fail-stop,
// so it accumulates no failure run and triggers no quarantine.
func (s *Supervisor) classifyLocked(infos map[string]pingResult) {
	now := time.Now()
	for _, id := range s.registeredIDs() {
		r, ok := infos[id]
		if !ok {
			continue
		}
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
			// Still silent: scheduled departure, not a failure — observe
			// nothing.
		case r.err != nil:
			if s.firstFail[id].IsZero() {
				s.firstFail[id] = now
			}
			s.det.Observe(id, vtime.FromStd(s.cfg.Client.Timeout), true)
		default:
			s.det.Observe(id, vtime.FromStd(r.lat), false)
		}
	}
	for id, st := range s.memberStatesLocked(infos) {
		switch st {
		case cluster.Down:
			if s.wasDown[id] {
				continue
			}
			if r, ok := infos[id]; ok && r.err == nil {
				// The detector says Down but the node just answered:
				// signals disagree — hold instead of quarantining a member
				// that is visibly serving.
				s.holdLocked(HoldDetectorDisagree, id, -1)
				continue
			}
			s.wasDown[id] = true
			s.detections++
			s.downSince[id] = now
			if !s.firstFail[id].IsZero() {
				s.detectLat = now.Sub(s.firstFail[id])
			}
			s.quarantineNodeLocked(id)
		default:
			if s.wasDown[id] {
				delete(s.wasDown, id)
				s.firstFail[id] = time.Time{}
			}
		}
	}
}

// memberStatesLocked classifies every member of the current (and pending)
// placement, in deterministic order.
func (s *Supervisor) memberStatesLocked(map[string]pingResult) map[string]cluster.Health {
	out := make(map[string]cluster.Health)
	for _, m := range s.table.Cur.Members() {
		out[m.ID] = s.det.State(m.ID)
	}
	if s.table.Next != nil {
		for _, m := range s.table.Next.Members() {
			out[m.ID] = s.det.State(m.ID)
		}
	}
	return out
}

// quarantineNodeLocked marks every range the downed member serves as
// degraded on that member: while it was away it missed every write, so
// until a hash-verified repair confirms its copies they must not serve.
func (s *Supervisor) quarantineNodeLocked(id string) {
	for rng := 0; rng < s.table.Cur.Ranges; rng++ {
		if s.table.Cur.OwnedBy(rng, id) {
			if _, ok := s.quar[cluster.DegKey{Node: id, Range: rng}]; !ok {
				s.quar[cluster.DegKey{Node: id, Range: rng}] = 0
			}
		}
	}
}

// repushLocked heals stale epochs through the ping channel: any healthy,
// non-departing member advertising an epoch older than the last committed
// push gets the committed table re-installed — how a restarted node
// rejoins the routing without a management protocol.
func (s *Supervisor) repushLocked(infos map[string]pingResult) {
	for _, m := range s.table.Cur.Members() {
		r, ok := infos[m.ID]
		if !ok || r.err != nil || r.info.Draining || r.info.Epoch >= s.pushed {
			continue
		}
		if n, ok := s.nodes[m.ID]; ok {
			_ = n.Push(s.table.Cur, s.pushed)
		}
	}
}

// pushAllLocked installs the committed table on every registered member of
// the current placement. Failures are left to the per-tick re-push.
func (s *Supervisor) pushAllLocked() {
	for _, m := range s.table.Cur.Members() {
		if n, ok := s.nodes[m.ID]; ok {
			_ = n.Push(s.table.Cur, s.pushed)
		}
	}
	if s.fl != nil {
		_ = s.fl.SetRing(s.table.Cur)
	}
}

// holdLocked records a typed deferred action.
func (s *Supervisor) holdLocked(reason HoldReason, node string, rng int) {
	s.holds = append(s.holds, Hold{Reason: reason, Node: node, Range: rng})
}

// refreshFleet re-syncs the data-path client to the given authoritative
// placement after a node refused an op at a stale epoch. The supervisor is
// the epoch authority, so a refusal means its own client view lagged a
// push (e.g. a node restarted into a newer epoch from a prior
// incarnation); the table itself never moves in response. Safe without
// s.mu — the fleet locks internally — so repair workers can call it while
// the ticking goroutine holds the supervisor lock.
func (s *Supervisor) refreshFleet(cur *cluster.Ring) {
	_ = s.fl.SetRing(cur)
}

// persistLocked writes the journal durably (temp file + rename) before the
// state it records takes effect anywhere.
func (s *Supervisor) persistLocked(j cluster.SupJournal) error {
	data, err := j.Encode()
	if err != nil {
		return err
	}
	if s.cfg.JournalPath == "" {
		s.lastJournal = data
		return nil
	}
	tmp := s.cfg.JournalPath + ".tmp"
	if err := os.WriteFile(tmp, data, 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, s.cfg.JournalPath)
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

// advanceLocked pushes an in-flight transition forward: stream up to
// StepsPerTick pending moves, commit when the pending set is empty and
// every target is healthy, abort when held too long.
func (s *Supervisor) advanceLocked(infos map[string]pingResult) error {
	if s.phase != cluster.SupTransition {
		return nil
	}
	progressed := false
	for i := 0; i < s.cfg.StepsPerTick && len(s.pending) > 0; i++ {
		mv := s.pending[0]
		if !s.healthyLocked(mv.Target, infos) {
			s.holdLocked(HoldTargetDown, mv.Target, mv.Range)
			s.pending = append(s.pending[1:], mv)
			break
		}
		if err := s.fl.StreamMove(s.table.Cur, s.table.Next, mv); err != nil {
			if errors.Is(err, netblock.ErrStaleEpoch) {
				s.refreshFleet(s.table.Cur)
			}
			s.holdLocked(HoldNoCleanSource, mv.Target, mv.Range)
			s.pending = append(s.pending[1:], mv)
			continue
		}
		s.pending = s.pending[1:]
		progressed = true
		if err := s.persistLocked(cluster.SnapshotSupJournal(s.table, s.pending, cluster.SupTransition)); err != nil {
			return err
		}
	}
	if len(s.pending) == 0 {
		if s.commitSafeLocked(infos) {
			return s.commitLocked()
		}
		s.holdLocked(HoldCommitUnsafe, "", -1)
	}
	if progressed {
		s.heldTicks = 0
	} else {
		s.heldTicks++
		if s.heldTicks > s.cfg.AbortAfter {
			return s.abortLocked()
		}
	}
	return nil
}

// commitSafeLocked: every member of the new placement must be healthy and
// staying — committing at a dead or departing target would strand its
// ranges on copies nobody verified.
func (s *Supervisor) commitSafeLocked(infos map[string]pingResult) bool {
	for _, m := range s.table.Next.Members() {
		if !s.healthyLocked(m.ID, infos) {
			return false
		}
	}
	return true
}

// commitLocked finishes the transition. Ordering is the crash-safety
// contract: journal the decided table first (phase push), then swap and
// push — a crash between the two re-pushes on recovery instead of
// re-deciding, so no node ever observes an epoch the journal does not.
func (s *Supervisor) commitLocked() error {
	newT := &cluster.Table{Epoch: s.table.Epoch + 1, Cur: s.table.Next}
	moved := cluster.Moves(s.table.Cur, newT.Cur)
	if err := s.persistLocked(cluster.SnapshotSupJournal(newT, moved, cluster.SupPush)); err != nil {
		return err
	}
	if s.failpoint != nil && s.failpoint("commit-push") {
		s.dead = true
		return errCrashed
	}
	departed := s.table.Cur.Members()
	s.table = newT
	s.pending = nil
	s.phase = cluster.SupStable
	s.pushed = newT.Epoch
	s.pushAllLocked()
	// Members that left the placement stop being supervised.
	for _, m := range departed {
		if _, still := newT.Cur.Member(m.ID); !still {
			s.det.Forget(m.ID)
			delete(s.departing, m.ID)
		}
	}
	// Writes that landed between a move's stream and this push reached the
	// old chain only: quarantine each moved copy until a hash-verified
	// repair from a surviving replica confirms (or heals) it.
	for _, mv := range moved {
		if _, ok := s.quar[cluster.DegKey{Node: mv.Target, Range: mv.Range}]; !ok {
			s.quar[cluster.DegKey{Node: mv.Target, Range: mv.Range}] = 0
		}
	}
	if err := s.persistLocked(cluster.SnapshotSupJournal(s.table, nil, cluster.SupStable)); err != nil {
		return err
	}
	s.commits++
	s.heldTicks = 0
	return nil
}

// abortLocked cancels the transition at a fresh epoch with the old
// placement — streamed ranges stay on their targets as unrouted garbage.
func (s *Supervisor) abortLocked() error {
	newT := &cluster.Table{Epoch: s.table.Epoch + 1, Cur: s.table.Cur}
	if err := s.persistLocked(cluster.SnapshotSupJournal(newT, nil, cluster.SupPush)); err != nil {
		return err
	}
	if s.failpoint != nil && s.failpoint("abort-push") {
		s.dead = true
		return errCrashed
	}
	s.table = newT
	s.pending = nil
	s.phase = cluster.SupStable
	s.pushed = newT.Epoch
	s.pushAllLocked()
	if err := s.persistLocked(cluster.SnapshotSupJournal(s.table, nil, cluster.SupStable)); err != nil {
		return err
	}
	s.aborts++
	s.heldTicks = 0
	return nil
}

// BeginJoin starts pulling a registered node into the placement. The
// transition is journaled before any stream runs.
func (s *Supervisor) BeginJoin(m cluster.Member) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.phase != cluster.SupStable {
		return fmt.Errorf("supervisor: rebalance already in flight")
	}
	if _, ok := s.nodes[m.ID]; !ok {
		return fmt.Errorf("supervisor: joining node %q not registered", m.ID)
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

func (s *Supervisor) beginLocked(next *cluster.Ring) error {
	table := &cluster.Table{Epoch: s.table.Epoch + 1, Cur: s.table.Cur, Next: next}
	pending := cluster.Moves(s.table.Cur, next)
	if err := s.persistLocked(cluster.SnapshotSupJournal(table, pending, cluster.SupTransition)); err != nil {
		return err
	}
	s.table, s.pending, s.phase = table, pending, cluster.SupTransition
	s.heldTicks = 0
	return nil
}

// repairLocked schedules hash-verified repairs for quarantined copies
// whose node answers pings, with bounded concurrency and per-repair
// retry/backoff. A node that no longer owns the range sheds its mark
// without traffic (membership moved on).
func (s *Supervisor) repairLocked(infos map[string]pingResult) {
	keys := make([]cluster.DegKey, 0, len(s.quar))
	for k := range s.quar {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].Node != keys[j].Node {
			return keys[i].Node < keys[j].Node
		}
		return keys[i].Range < keys[j].Range
	})

	var eligible []cluster.DegKey
	for _, k := range keys {
		if !s.table.Cur.OwnedBy(k.Range, k.Node) {
			delete(s.quar, k)
			continue
		}
		if !s.healthyLocked(k.Node, infos) {
			continue // still down or departing; repair when it answers
		}
		eligible = append(eligible, k)
		if len(eligible) >= s.cfg.MaxRepairsPerTick {
			break
		}
	}
	if len(eligible) == 0 {
		return
	}

	type result struct {
		key cluster.DegKey
		err error
	}
	cur := s.table.Cur // captured under s.mu; workers must not take it
	results := make([]result, len(eligible))
	sem := make(chan struct{}, s.cfg.RepairConcurrency)
	var wg sync.WaitGroup
	for i, k := range eligible {
		wg.Add(1)
		go func(i int, k cluster.DegKey) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			var err error
			for attempt := 0; attempt < s.cfg.RepairAttempts; attempt++ {
				if err = s.fl.RepairRange(k.Node, k.Range); err == nil {
					break
				}
				if errors.Is(err, netblock.ErrStaleEpoch) {
					s.refreshFleet(cur)
				}
				s.cfg.Sleep(s.cfg.RepairBackoff << attempt)
			}
			results[i] = result{key: k, err: err}
		}(i, k)
	}
	wg.Wait()

	now := time.Now()
	for _, r := range results {
		if r.err != nil {
			s.quar[r.key]++
			reason := HoldRepairFailed
			if errors.Is(r.err, fleet.ErrNoSourceReplica) {
				reason = HoldNoCleanSource
			}
			s.holdLocked(reason, r.key.Node, r.key.Range)
			continue
		}
		delete(s.quar, r.key)
		s.repairs++
		if since, ok := s.downSince[r.key.Node]; ok && s.nodeClearLocked(r.key.Node) {
			s.repairLat = now.Sub(since)
			delete(s.downSince, r.key.Node)
		}
	}
}

// nodeClearLocked reports whether a node has no quarantined copies left.
func (s *Supervisor) nodeClearLocked(id string) bool {
	for k := range s.quar {
		if k.Node == id {
			return false
		}
	}
	return true
}

// Quarantined reports whether a copy is currently quarantined — the
// read-path veto a routing client can consult.
func (s *Supervisor) Quarantined(node string, rng int) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	_, ok := s.quar[cluster.DegKey{Node: node, Range: rng}]
	return ok
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
		Detections:      s.detections,
		Repairs:         s.repairs,
		Commits:         s.commits,
		Aborts:          s.aborts,
		Resumes:         s.resumes,
		RecoveredPushes: s.recoveredPushes,
		DetectLatency:   s.detectLat,
		RepairLatency:   s.repairLat,
		Holds:           append([]Hold(nil), s.holds...),
	}
	for k := range s.quar {
		st.Quarantined = append(st.Quarantined, k)
	}
	sort.Slice(st.Quarantined, func(i, j int) bool {
		if st.Quarantined[i].Node != st.Quarantined[j].Node {
			return st.Quarantined[i].Node < st.Quarantined[j].Node
		}
		return st.Quarantined[i].Range < st.Quarantined[j].Range
	})
	for id := range s.departing {
		st.Departing = append(st.Departing, id)
	}
	sort.Strings(st.Departing)
	down, slow := s.det.Classified()
	st.Down, st.Slow = down, slow
	return st
}
