package cluster

import (
	"fmt"
	"strconv"
	"strings"
)

// SupPhase is the supervisor's journaled lifecycle phase. The journal is
// written before the state it records takes effect on any node, so a
// supervisor restart can always tell which side of a transition boundary
// the crash landed on.
type SupPhase int

const (
	// SupStable: Cur at Epoch is the committed placement. Recovery
	// re-pushes it (idempotent) and resumes normal supervision.
	SupStable SupPhase = iota
	// SupTransition: a rebalance is in flight; the table carries Cur and
	// Next, and Pending lists the moves not yet streamed. Recovery resumes
	// streaming — or aborts cleanly — without violating the clean-head
	// invariant, because no node ever saw an epoch the journal does not.
	SupTransition
	// SupPush: a commit or abort has been decided and journaled, but its
	// epoch push may have reached only some nodes. Recovery re-pushes Cur
	// at Epoch to every node and rewrites the journal as SupStable —
	// finishing the interrupted push rather than re-deciding it. A commit's
	// push record also carries the moved ranges as Pending: recovery
	// re-quarantines each moved copy for catch-up verification, so a crash
	// between decide and push cannot skip the delta-window repair.
	SupPush
)

func (p SupPhase) String() string {
	switch p {
	case SupStable:
		return "stable"
	case SupTransition:
		return "transition"
	case SupPush:
		return "push"
	default:
		return fmt.Sprintf("phase(%d)", int(p))
	}
}

// supJournalMagic versions the serialized format; a decoder refuses
// anything else rather than guessing.
const supJournalMagic = "srccache-supervisor-journal/v1"

// SupJournal is the supervisor's durable state: the epoch-versioned
// placement and the pending moves of an in-flight rebalance — everything a
// restarted supervisor needs to resume or cleanly abort. The encoding is a
// deterministic line format so the same state always serializes to the
// same bytes (journal writes are comparable across runs of a seeded
// schedule).
type SupJournal struct {
	Phase      SupPhase
	Epoch      uint64
	Replicas   int
	Ranges     int
	RangeBytes int64
	Cur        []Member
	Next       []Member // non-nil only while Phase == SupTransition
	Pending    []Move   // transition: unstreamed moves; push: the commit's moved copies
	// Quarantined lists the copies that must not serve reads until a
	// verified repair — the supervisor's veto, which every push carries to
	// the nodes and a restarted supervisor must not forget.
	Quarantined []DegKey
}

// SnapshotSupJournal captures a routing table and its pending moves as a
// journal record. The phase is taken from the table shape unless the
// caller overrides it (SupPush records a stable-shaped table whose push is
// not yet complete).
func SnapshotSupJournal(t *Table, pending []Move, phase SupPhase) SupJournal {
	j := SupJournal{
		Phase:      phase,
		Epoch:      t.Epoch,
		Replicas:   t.Cur.Replicas,
		Ranges:     t.Cur.Ranges,
		RangeBytes: t.Cur.RangeBytes,
		Cur:        t.Cur.Members(),
		Pending:    append([]Move(nil), pending...),
	}
	if t.Next != nil {
		j.Next = t.Next.Members()
	}
	return j
}

// Table rebuilds the routing table (and pending moves) the journal
// records. The rings are reconstructed from the member lists, so the
// placement is bit-identical to the one journaled — Ring is a pure
// function of (geometry, member set).
func (j SupJournal) Table() (*Table, []Move, error) {
	cur, err := NewRing(j.Replicas, j.Ranges, j.RangeBytes, j.Cur)
	if err != nil {
		return nil, nil, fmt.Errorf("cluster: journal cur ring: %w", err)
	}
	t := &Table{Epoch: j.Epoch, Cur: cur}
	if j.Next != nil {
		next, err := NewRing(j.Replicas, j.Ranges, j.RangeBytes, j.Next)
		if err != nil {
			return nil, nil, fmt.Errorf("cluster: journal next ring: %w", err)
		}
		t.Next = next
	}
	return t, append([]Move(nil), j.Pending...), nil
}

// Encode serializes the journal. Member IDs and addresses must be free of
// the separators the line format uses; the supervisor validates its
// membership once here instead of trusting every caller.
func (j SupJournal) Encode() ([]byte, error) {
	if j.Phase == SupTransition && j.Next == nil {
		return nil, fmt.Errorf("cluster: transition journal without next membership")
	}
	if j.Phase != SupTransition && j.Next != nil {
		return nil, fmt.Errorf("cluster: %v journal carries transition state", j.Phase)
	}
	if j.Phase == SupStable && len(j.Pending) > 0 {
		return nil, fmt.Errorf("cluster: %v journal carries transition state", j.Phase)
	}
	var b strings.Builder
	b.WriteString(supJournalMagic)
	b.WriteByte('\n')
	fmt.Fprintf(&b, "phase %s\n", j.Phase)
	fmt.Fprintf(&b, "epoch %d\n", j.Epoch)
	fmt.Fprintf(&b, "geometry %d %d %d\n", j.Replicas, j.Ranges, j.RangeBytes)
	if err := writeMembers(&b, "cur", j.Cur); err != nil {
		return nil, err
	}
	if j.Next != nil {
		if err := writeMembers(&b, "next", j.Next); err != nil {
			return nil, err
		}
	}
	if err := writeMoves(&b, "pending", j.Pending); err != nil {
		return nil, err
	}
	quar := make([]Move, len(j.Quarantined))
	for i, k := range j.Quarantined {
		quar[i] = Move{Range: k.Range, Target: k.Node}
	}
	if err := writeMoves(&b, "quarantine", quar); err != nil {
		return nil, err
	}
	return []byte(b.String()), nil
}

func writeMoves(b *strings.Builder, key string, moves []Move) error {
	if len(moves) == 0 {
		return nil
	}
	b.WriteString(key)
	for _, mv := range moves {
		if strings.ContainsAny(mv.Target, " =\n") || mv.Target == "" {
			return fmt.Errorf("cluster: node %q not journalable", mv.Target)
		}
		fmt.Fprintf(b, " %d=%s", mv.Range, mv.Target)
	}
	b.WriteByte('\n')
	return nil
}

func writeMembers(b *strings.Builder, key string, members []Member) error {
	b.WriteString(key)
	for _, m := range members {
		if m.ID == "" || strings.ContainsAny(m.ID, " =\n") {
			return fmt.Errorf("cluster: member ID %q not journalable", m.ID)
		}
		if strings.ContainsAny(m.Addr, " \n") {
			return fmt.Errorf("cluster: member address %q not journalable", m.Addr)
		}
		fmt.Fprintf(b, " %s=%s", m.ID, m.Addr)
	}
	b.WriteByte('\n')
	return nil
}

// DecodeSupJournal parses an encoded journal, validating structure and
// phase/shape consistency — a truncated or hand-damaged journal must fail
// loudly, not resurrect a half-written table.
func DecodeSupJournal(data []byte) (SupJournal, error) {
	var j SupJournal
	lines := strings.Split(strings.TrimRight(string(data), "\n"), "\n")
	if len(lines) == 0 || lines[0] != supJournalMagic {
		return j, fmt.Errorf("cluster: journal magic missing or unsupported")
	}
	seen := make(map[string]bool)
	for _, line := range lines[1:] {
		key, rest, _ := strings.Cut(line, " ")
		if seen[key] {
			return j, fmt.Errorf("cluster: duplicate journal key %q", key)
		}
		seen[key] = true
		var err error
		switch key {
		case "phase":
			switch rest {
			case "stable":
				j.Phase = SupStable
			case "transition":
				j.Phase = SupTransition
			case "push":
				j.Phase = SupPush
			default:
				return j, fmt.Errorf("cluster: unknown journal phase %q", rest)
			}
		case "epoch":
			j.Epoch, err = strconv.ParseUint(rest, 10, 64)
		case "geometry":
			_, err = fmt.Sscanf(rest, "%d %d %d", &j.Replicas, &j.Ranges, &j.RangeBytes)
		case "cur":
			j.Cur, err = parseMembers(rest)
		case "next":
			j.Next, err = parseMembers(rest)
		case "pending":
			j.Pending, err = parseMoves(rest)
		case "quarantine":
			var quar []Move
			quar, err = parseMoves(rest)
			for _, mv := range quar {
				j.Quarantined = append(j.Quarantined, DegKey{Node: mv.Target, Range: mv.Range})
			}
		default:
			return j, fmt.Errorf("cluster: unknown journal key %q", key)
		}
		if err != nil {
			return j, fmt.Errorf("cluster: journal %s: %w", key, err)
		}
	}
	for _, req := range []string{"phase", "epoch", "geometry", "cur"} {
		if !seen[req] {
			return j, fmt.Errorf("cluster: journal missing %q", req)
		}
	}
	if j.Phase == SupTransition && j.Next == nil {
		return j, fmt.Errorf("cluster: transition journal without next membership")
	}
	if j.Phase != SupTransition && j.Next != nil {
		return j, fmt.Errorf("cluster: %v journal carries transition state", j.Phase)
	}
	if j.Phase == SupStable && len(j.Pending) > 0 {
		return j, fmt.Errorf("cluster: %v journal carries transition state", j.Phase)
	}
	return j, nil
}

func parseMembers(rest string) ([]Member, error) {
	var members []Member
	for _, field := range strings.Fields(rest) {
		id, addr, ok := strings.Cut(field, "=")
		if !ok || id == "" {
			return nil, fmt.Errorf("member entry %q is not id=addr", field)
		}
		members = append(members, Member{ID: id, Addr: addr})
	}
	if len(members) == 0 {
		return nil, fmt.Errorf("empty member list")
	}
	return members, nil
}

func parseMoves(rest string) ([]Move, error) {
	var moves []Move
	for _, field := range strings.Fields(rest) {
		rngStr, target, ok := strings.Cut(field, "=")
		if !ok || target == "" {
			return nil, fmt.Errorf("move entry %q is not range=target", field)
		}
		rng, err := strconv.Atoi(rngStr)
		if err != nil {
			return nil, fmt.Errorf("move entry %q: %w", field, err)
		}
		moves = append(moves, Move{Range: rng, Target: target})
	}
	return moves, nil
}
