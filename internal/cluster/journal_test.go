package cluster

import (
	"strings"
	"testing"
)

func journalRings(t *testing.T) (*Ring, *Ring) {
	t.Helper()
	cur, err := NewRing(2, 8, 4096, []Member{
		{ID: "a", Addr: "127.0.0.1:9001"},
		{ID: "b", Addr: "127.0.0.1:9002"},
		{ID: "c", Addr: "127.0.0.1:9003"},
	})
	if err != nil {
		t.Fatal(err)
	}
	next, err := cur.WithJoin(Member{ID: "d", Addr: "127.0.0.1:9004"})
	if err != nil {
		t.Fatal(err)
	}
	return cur, next
}

func TestSupJournalRoundTrip(t *testing.T) {
	cur, next := journalRings(t)
	table := &Table{Epoch: 7, Cur: cur, Next: next}
	pending := Moves(cur, next)
	if len(pending) == 0 {
		t.Fatal("join produced no moves")
	}

	j := SnapshotSupJournal(table, pending, SupTransition)
	data, err := j.Encode()
	if err != nil {
		t.Fatal(err)
	}
	// Determinism: the same state must serialize identically.
	again, err := SnapshotSupJournal(table, pending, SupTransition).Encode()
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != string(again) {
		t.Fatalf("encoding not deterministic:\n%s\nvs\n%s", data, again)
	}

	got, err := DecodeSupJournal(data)
	if err != nil {
		t.Fatal(err)
	}
	rt, rp, err := got.Table()
	if err != nil {
		t.Fatal(err)
	}
	if rt.Epoch != 7 || rt.Next == nil {
		t.Fatalf("rebuilt table = %+v", rt)
	}
	if len(rp) != len(pending) {
		t.Fatalf("pending %d != %d", len(rp), len(pending))
	}
	for i := range pending {
		if rp[i] != pending[i] {
			t.Fatalf("move %d: %+v != %+v", i, rp[i], pending[i])
		}
	}
	// The rebuilt rings must place identically: Ring is a pure function of
	// its member set, so every range's chain must match.
	for rng := 0; rng < cur.Ranges; rng++ {
		if a, b := cur.Owners(rng), rt.Cur.Owners(rng); strings.Join(a, ",") != strings.Join(b, ",") {
			t.Fatalf("range %d owners %v != %v", rng, a, b)
		}
	}
	// A member lookup must preserve addresses (the wallclock supervisor
	// dials them back out of the journal).
	if m, ok := rt.Cur.Member("b"); !ok || m.Addr != "127.0.0.1:9002" {
		t.Fatalf("member b = %+v, %v", m, ok)
	}
}

func TestSupJournalStableAndPush(t *testing.T) {
	cur, _ := journalRings(t)
	for _, phase := range []SupPhase{SupStable, SupPush} {
		j := SnapshotSupJournal(&Table{Epoch: 3, Cur: cur}, nil, phase)
		data, err := j.Encode()
		if err != nil {
			t.Fatalf("%v: %v", phase, err)
		}
		got, err := DecodeSupJournal(data)
		if err != nil {
			t.Fatalf("%v: %v", phase, err)
		}
		if got.Phase != phase || got.Epoch != 3 || got.Next != nil || len(got.Pending) != 0 {
			t.Fatalf("%v round trip = %+v", phase, got)
		}
	}

	// A commit's push record carries the moved copies so a recovering
	// supervisor can re-quarantine them for catch-up verification.
	moved := []Move{{Range: 2, Target: "c"}, {Range: 5, Target: "a"}}
	data, err := SnapshotSupJournal(&Table{Epoch: 4, Cur: cur}, moved, SupPush).Encode()
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeSupJournal(data)
	if err != nil {
		t.Fatal(err)
	}
	if got.Phase != SupPush || len(got.Pending) != 2 || got.Pending[0] != moved[0] || got.Pending[1] != moved[1] {
		t.Fatalf("push-with-moves round trip = %+v", got)
	}

	// The quarantine rides every record, a stable one included.
	j := SnapshotSupJournal(&Table{Epoch: 5, Cur: cur}, nil, SupStable)
	j.Quarantined = []DegKey{{Node: "a", Range: 1}, {Node: "c", Range: 6}}
	data, err = j.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if got, err = DecodeSupJournal(data); err != nil {
		t.Fatal(err)
	}
	if len(got.Quarantined) != 2 || got.Quarantined[0] != j.Quarantined[0] || got.Quarantined[1] != j.Quarantined[1] {
		t.Fatalf("quarantine round trip = %+v", got)
	}
}

func TestSupJournalRejectsDamage(t *testing.T) {
	cur, next := journalRings(t)
	table := &Table{Epoch: 7, Cur: cur, Next: next}
	good, err := SnapshotSupJournal(table, Moves(cur, next), SupTransition).Encode()
	if err != nil {
		t.Fatal(err)
	}
	cases := map[string][]byte{
		"empty":          nil,
		"bad magic":      []byte("not-a-journal\nphase stable\n"),
		"truncated":      good[:len(good)/2],
		"missing phase":  []byte(supJournalMagic + "\nepoch 1\ngeometry 2 8 4096\ncur a=x\n"),
		"unknown phase":  []byte(supJournalMagic + "\nphase maybe\nepoch 1\ngeometry 2 8 4096\ncur a=x\n"),
		"stable pending": []byte(supJournalMagic + "\nphase stable\nepoch 1\ngeometry 2 8 4096\ncur a=x\npending 1=a\n"),
		"duplicate key":  []byte(supJournalMagic + "\nphase stable\nphase stable\nepoch 1\ngeometry 2 8 4096\ncur a=x\n"),
	}
	for name, data := range cases {
		if _, err := DecodeSupJournal(data); err == nil {
			t.Errorf("%s: decode accepted damaged journal", name)
		}
	}
	// Encode must refuse unjournalable state rather than writing a record
	// decode would reject.
	bad := SnapshotSupJournal(table, nil, SupTransition)
	bad.Cur = []Member{{ID: "a b", Addr: "x"}}
	if _, err := bad.Encode(); err == nil {
		t.Error("encode accepted member ID with a space")
	}
	if _, err := SnapshotSupJournal(&Table{Epoch: 1, Cur: cur}, []Move{{1, "z"}}, SupStable).Encode(); err == nil {
		t.Error("encode accepted stable journal with pending moves")
	}
}
