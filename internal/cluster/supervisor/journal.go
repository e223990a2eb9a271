package supervisor

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"slices"

	"srccache/internal/cluster"
)

// journalFormat versions the record; a decoder refuses any other.
const journalFormat = "srccache-supervisor-journal/v2"

// journal is the supervisor's durable state, one JSON object: the
// epoch-versioned placement, the pending moves of an in-flight rebalance
// and the quarantine — everything a restarted supervisor needs to resume or
// cleanly abort. Fields encode in order and the quarantine is sorted, so
// the same state always encodes to the same bytes.
type journal struct {
	Format     string           `json:"format"`
	Phase      cluster.SupPhase `json:"phase"`
	Epoch      uint64           `json:"epoch"`
	Replicas   int              `json:"replicas"`
	Ranges     int              `json:"ranges"`
	RangeBytes int64            `json:"range_bytes"`
	Cur        []cluster.Member `json:"cur"`
	Next       []cluster.Member `json:"next"`    // non-nil only in a transition
	Pending    []cluster.Move   `json:"pending"` // transition: unstreamed moves; push: the commit's moved copies
	// Quarantined lists the copies that must not serve reads until a
	// verified repair — the supervisor's veto, which every push carries to
	// the nodes and a restarted supervisor must not forget.
	Quarantined []cluster.DegKey `json:"quarantine"`
}

// journalKeys are the record's top-level keys, the required ones first.
var journalKeys = []string{"format", "phase", "epoch", "replicas", "ranges", "range_bytes", "cur", "next", "pending", "quarantine"}

const requiredKeys = 7

// newJournal records table t, its pending moves and the quarantine at
// phase: a SupPush record holds a stable-shaped table whose push may not
// have reached every node.
func newJournal(t *cluster.Table, pending []cluster.Move, phase cluster.SupPhase, quar []cluster.DegKey) journal {
	j := journal{
		Format:      journalFormat,
		Phase:       phase,
		Epoch:       t.Epoch,
		Replicas:    t.Cur.Replicas,
		Ranges:      t.Cur.Ranges,
		RangeBytes:  t.Cur.RangeBytes,
		Cur:         t.Cur.Members(),
		Pending:     pending,
		Quarantined: quar,
	}
	if t.Next != nil {
		j.Next = t.Next.Members()
	}
	return j
}

// encodeJournal serializes a record, refusing one whose phase and contents
// disagree rather than writing what decodeJournal would reject.
func encodeJournal(j journal) ([]byte, error) {
	if err := j.shape(); err != nil {
		return nil, err
	}
	return json.Marshal(j)
}

// decodeJournal parses a record and checks it against the rings it
// describes, so a truncated, hand-damaged or inconsistent journal fails
// loudly instead of resurrecting a table no node could install: every
// top-level key is known and appears once, the required ones are there,
// the phase matches the record's shape, both rings build, every range a
// move or a quarantine names lies in them, and every move's target is a
// member of one. A quarantined node need not be: the supervisor keeps the
// mark of a node that left the rings until its next repair pass sheds it.
func decodeJournal(data []byte) (journal, error) {
	var j journal
	if err := checkKeys(data); err != nil {
		return j, fmt.Errorf("supervisor: journal: %w", err)
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&j); err != nil {
		return j, fmt.Errorf("supervisor: journal: %w", err)
	}
	if j.Format != journalFormat {
		return j, fmt.Errorf("supervisor: journal format %q unsupported", j.Format)
	}
	if err := j.shape(); err != nil {
		return j, err
	}
	if _, err := j.table(); err != nil {
		return j, err
	}
	outside := func(rng int) bool { return rng < 0 || rng >= j.Ranges }
	members := slices.Concat(j.Cur, j.Next)
	for _, mv := range j.Pending {
		if outside(mv.Range) || !slices.ContainsFunc(members, func(m cluster.Member) bool { return m.ID == mv.Target }) {
			return j, fmt.Errorf("supervisor: journal moves range %d to %q, outside its rings", mv.Range, mv.Target)
		}
	}
	if i := slices.IndexFunc(j.Quarantined, func(k cluster.DegKey) bool { return outside(k.Range) }); i >= 0 {
		return j, fmt.Errorf("supervisor: journal quarantines range %d outside [0, %d)", j.Quarantined[i].Range, j.Ranges)
	}
	return j, nil
}

// checkKeys walks the record's top-level keys: each one known and not
// repeated, every required one present and not null, and nothing after the
// object.
func checkKeys(data []byte) error {
	dec := json.NewDecoder(bytes.NewReader(data))
	tok, err := dec.Token()
	if err != nil {
		return err
	}
	if tok != json.Delim('{') {
		return errors.New("not a JSON object")
	}
	seen := make(map[string]bool)
	for dec.More() {
		tok, err := dec.Token()
		if err != nil {
			return err
		}
		key, _ := tok.(string)
		i := slices.Index(journalKeys, key)
		switch {
		case i < 0:
			return fmt.Errorf("unknown key %q", key)
		case seen[key]:
			return fmt.Errorf("duplicate key %q", key)
		}
		seen[key] = true
		var val json.RawMessage
		if err := dec.Decode(&val); err != nil {
			return err
		}
		if i < requiredKeys && string(val) == "null" {
			return fmt.Errorf("%q is null", key)
		}
	}
	if _, err := dec.Token(); err != nil {
		return err
	}
	if _, err := dec.Token(); err != io.EOF {
		return errors.New("bytes after the record")
	}
	for _, key := range journalKeys[:requiredKeys] {
		if !seen[key] {
			return fmt.Errorf("missing %q", key)
		}
	}
	return nil
}

// shape refuses a record of an unknown phase or whose contents disagree
// with its phase: only a transition carries a next placement, and a stable
// record moves nothing.
func (j journal) shape() error {
	switch {
	case !slices.Contains([]cluster.SupPhase{cluster.SupStable, cluster.SupTransition, cluster.SupPush}, j.Phase):
		return fmt.Errorf("supervisor: unknown journal phase %q", j.Phase)
	case j.Phase == cluster.SupTransition && j.Next == nil:
		return errors.New("supervisor: transition journal without next membership")
	case j.Phase != cluster.SupTransition && j.Next != nil:
		return fmt.Errorf("supervisor: %v journal carries a next membership", j.Phase)
	case j.Phase == cluster.SupStable && len(j.Pending) > 0:
		return fmt.Errorf("supervisor: %v journal carries pending moves", j.Phase)
	}
	return nil
}

// table rebuilds the routing table the record holds. Ring is a pure
// function of (geometry, member set), so the placement is the one
// journaled.
func (j journal) table() (*cluster.Table, error) {
	cur, err := cluster.NewRing(j.Replicas, j.Ranges, j.RangeBytes, j.Cur)
	if err != nil {
		return nil, fmt.Errorf("supervisor: journal cur ring: %w", err)
	}
	t := &cluster.Table{Epoch: j.Epoch, Cur: cur}
	if j.Next != nil {
		if t.Next, err = cluster.NewRing(j.Replicas, j.Ranges, j.RangeBytes, j.Next); err != nil {
			return nil, fmt.Errorf("supervisor: journal next ring: %w", err)
		}
	}
	return t, nil
}
