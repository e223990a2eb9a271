package supervisor

import (
	"fmt"
	"reflect"
	"slices"
	"testing"

	"srccache/internal/cluster"
)

// journalTable is a transition table on the 8-range test geometry: a, b, c
// joined by d, with the join's moves.
func journalTable(t testing.TB) (*cluster.Table, []cluster.Move) {
	t.Helper()
	cur, err := cluster.NewRing(2, tRanges, tRangeBytes, []cluster.Member{
		{ID: "a", Addr: "127.0.0.1:9001"},
		{ID: "b", Addr: "127.0.0.1:9002"},
		{ID: "c", Addr: "127.0.0.1:9003"},
	})
	if err != nil {
		t.Fatal(err)
	}
	next, err := cur.WithJoin(cluster.Member{ID: "d", Addr: "127.0.0.1:9004"})
	if err != nil {
		t.Fatal(err)
	}
	return &cluster.Table{Epoch: 7, Cur: cur, Next: next}, cluster.Moves(cur, next)
}

func mustEncode(t testing.TB, j journal) []byte {
	t.Helper()
	data, err := encodeJournal(j)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// goodJournals are one record of each kind the supervisor writes: a
// transition, a commit's push with its moved copies, and a stable record
// with a quarantine.
func goodJournals(t testing.TB) [][]byte {
	table, pending := journalTable(t)
	stable := &cluster.Table{Epoch: 8, Cur: table.Next}
	return [][]byte{
		mustEncode(t, newJournal(table, pending, cluster.SupTransition, nil)),
		mustEncode(t, newJournal(stable, pending, cluster.SupPush, []cluster.DegKey{{Node: "d", Range: pending[0].Range}})),
		mustEncode(t, newJournal(stable, nil, cluster.SupStable, []cluster.DegKey{{Node: "a", Range: 1}, {Node: "c", Range: 6}})),
	}
}

// damagedJournals are records decodeJournal must refuse, each one damage
// away from a good record on the 8-range geometry.
func damagedJournals(t testing.TB) map[string][]byte {
	rec := func(fields string) []byte { return []byte(`{"format":"` + journalFormat + `",` + fields + `}`) }
	const geo = `"epoch":1,"replicas":2,"ranges":8,"range_bytes":4096,"cur":[{"ID":"a","Addr":"x"}]`
	good := goodJournals(t)[0]
	return map[string][]byte{
		"empty":                        nil,
		"bad format":                   []byte(`{"format":"srccache-supervisor-journal/v1","phase":"stable",` + geo + `}`),
		"truncated":                    good[:len(good)/2],
		"missing phase":                rec(geo),
		"unknown phase":                rec(`"phase":"maybe",` + geo),
		"stable pending":               rec(`"phase":"stable",` + geo + `,"pending":[{"Range":1,"Target":"a"}]`),
		"duplicate key":                rec(`"phase":"stable","phase":"stable",` + geo),
		"unknown key":                  rec(`"phase":"stable",` + geo + `,"owner":"a"`),
		"bytes after the object":       slices.Concat(good, []byte(`{}`)),
		"quarantine range 99":          rec(`"phase":"stable",` + geo + `,"quarantine":[{"Node":"a","Range":99}]`),
		"pending range -1":             rec(`"phase":"push",` + geo + `,"pending":[{"Range":-1,"Target":"a"}]`),
		"pending move to a non-member": rec(`"phase":"push",` + geo + `,"pending":[{"Range":1,"Target":"z"}]`),
		// The ring refuses the geometry before allocating its chain table.
		"ranges above the bound": rec(fmt.Sprintf(`"phase":"stable","epoch":1,"replicas":2,"ranges":%d,"range_bytes":4096,"cur":[{"ID":"a","Addr":"x"}]`, cluster.MaxRanges+1)),
	}
}

func TestSupJournalRoundTrip(t *testing.T) {
	table, pending := journalTable(t)
	j := newJournal(table, pending, cluster.SupTransition, nil)
	data := mustEncode(t, j)
	// Determinism: the same state must serialize identically.
	if again := mustEncode(t, newJournal(table, pending, cluster.SupTransition, nil)); string(data) != string(again) {
		t.Fatalf("encoding not deterministic:\n%s\nvs\n%s", data, again)
	}

	got, err := decodeJournal(data)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, j) {
		t.Fatalf("round trip = %+v, want %+v", got, j)
	}
	rt, err := got.table()
	if err != nil {
		t.Fatal(err)
	}
	if rt.Epoch != 7 || rt.Next == nil {
		t.Fatalf("rebuilt table = %+v", rt)
	}
	// The rebuilt rings must place identically: Ring is a pure function of
	// its member set, so every range's chain must match.
	for rng := 0; rng < table.Cur.Ranges; rng++ {
		if a, b := table.Cur.Owners(rng), rt.Cur.Owners(rng); !slices.Equal(a, b) {
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
	table, _ := journalTable(t)
	cur := table.Cur
	for _, phase := range []cluster.SupPhase{cluster.SupStable, cluster.SupPush} {
		got, err := decodeJournal(mustEncode(t, newJournal(&cluster.Table{Epoch: 3, Cur: cur}, nil, phase, nil)))
		if err != nil {
			t.Fatalf("%v: %v", phase, err)
		}
		if got.Phase != phase || got.Epoch != 3 || got.Next != nil || len(got.Pending) != 0 {
			t.Fatalf("%v round trip = %+v", phase, got)
		}
	}

	// A commit's push record carries the moved copies so a recovering
	// supervisor can re-quarantine them for catch-up verification; the
	// quarantine rides every record, a stable one included.
	moved := []cluster.Move{{Range: 2, Target: "c"}, {Range: 5, Target: "a"}}
	quar := []cluster.DegKey{{Node: "a", Range: 1}, {Node: "c", Range: 6}}
	// JSON escapes what the line format could not carry, so member IDs and
	// addresses may hold its separators.
	odd, err := cluster.NewRing(2, tRanges, tRangeBytes, []cluster.Member{
		{ID: "a b", Addr: "host name:1"},
		{ID: "c=d", Addr: "x=y"},
		{ID: "e\nf", Addr: "line\nbreak"},
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, j := range []journal{
		newJournal(&cluster.Table{Epoch: 4, Cur: cur}, moved, cluster.SupPush, nil),
		newJournal(&cluster.Table{Epoch: 5, Cur: cur}, nil, cluster.SupStable, quar),
		newJournal(&cluster.Table{Epoch: 6, Cur: odd}, []cluster.Move{{Range: 3, Target: "e\nf"}}, cluster.SupPush,
			[]cluster.DegKey{{Node: "a b", Range: 0}, {Node: "c=d", Range: 7}}),
	} {
		got, err := decodeJournal(mustEncode(t, j))
		if err != nil {
			t.Fatalf("%+v: %v", j, err)
		}
		if !reflect.DeepEqual(got, j) {
			t.Fatalf("round trip = %+v, want %+v", got, j)
		}
	}
}

func TestSupJournalRejectsDamage(t *testing.T) {
	for name, data := range damagedJournals(t) {
		if _, err := decodeJournal(data); err == nil {
			t.Errorf("%s: decode accepted damaged journal %q", name, data)
		}
	}
	// An undamaged record is accepted, a quarantine mark of a node that has
	// left the ring included: the supervisor journals one until its next
	// repair pass sheds it.
	base := `{"format":"` + journalFormat + `","phase":"push","epoch":1,"replicas":2,"ranges":8,"range_bytes":4096,"cur":[{"ID":"a","Addr":"x"}],"pending":[{"Range":7,"Target":"a"}],"quarantine":[{"Node":"a","Range":7},{"Node":"z","Range":0}]}`
	if _, err := decodeJournal([]byte(base)); err != nil {
		t.Errorf("undamaged record refused: %v", err)
	}
	// Encode must refuse unjournalable state rather than writing a record
	// decode would reject.
	table, _ := journalTable(t)
	stable := &cluster.Table{Epoch: 1, Cur: table.Cur}
	if _, err := encodeJournal(newJournal(stable, []cluster.Move{{Range: 1, Target: "a"}}, cluster.SupStable, nil)); err == nil {
		t.Error("encode accepted stable journal with pending moves")
	}
	if _, err := encodeJournal(newJournal(stable, nil, cluster.SupTransition, nil)); err == nil {
		t.Error("encode accepted transition journal without next membership")
	}
}

// FuzzDecodeJournal: decode never panics, and a record it accepts builds
// its table, re-encodes, and decodes back to an equal record.
func FuzzDecodeJournal(f *testing.F) {
	for _, data := range damagedJournals(f) {
		f.Add(data)
	}
	for _, data := range goodJournals(f) {
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		j, err := decodeJournal(data)
		if err != nil {
			return
		}
		if _, err := j.table(); err != nil {
			t.Fatalf("accepted record builds no table: %v", err)
		}
		again, err := encodeJournal(j)
		if err != nil {
			t.Fatalf("accepted record does not re-encode: %v", err)
		}
		back, err := decodeJournal(again)
		if err != nil {
			t.Fatalf("re-encoded record refused: %v\n%s", err, again)
		}
		if !reflect.DeepEqual(back, j) {
			t.Fatalf("re-encoded record decodes to %+v, want %+v", back, j)
		}
	})
}
