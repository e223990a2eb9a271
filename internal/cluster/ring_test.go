package cluster

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"reflect"
	"strings"
	"testing"
)

func members(ids ...string) []Member {
	var ms []Member
	for _, id := range ids {
		ms = append(ms, Member{ID: id})
	}
	return ms
}

func mustRing(t *testing.T, replicas, ranges int, ids ...string) *Ring {
	t.Helper()
	r, err := NewRing(replicas, ranges, 4096, members(ids...))
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func TestRingValidation(t *testing.T) {
	cases := []struct {
		name     string
		replicas int
		ranges   int
		bytes    int64
		members  []Member
	}{
		{"zero replicas", 0, 4, 4096, members("a")},
		{"zero ranges", 2, 0, 4096, members("a")},
		{"zero bytes", 2, 4, 0, members("a")},
		{"no members", 2, 4, 4096, nil},
		{"empty id", 2, 4, 4096, members("a", "")},
		{"duplicate id", 2, 4, 4096, members("a", "a")},
	}
	for _, tc := range cases {
		if _, err := NewRing(tc.replicas, tc.ranges, tc.bytes, tc.members); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}
}

func TestRingOwnersDeterministicAndDistinct(t *testing.T) {
	// Member order at construction must not matter, and the same range must
	// map to the same chain every time.
	a := mustRing(t, 3, 64, "n0", "n1", "n2", "n3", "n4")
	b, err := NewRing(3, 64, 4096, members("n4", "n2", "n0", "n3", "n1"))
	if err != nil {
		t.Fatal(err)
	}
	for rng := 0; rng < 64; rng++ {
		oa, ob := a.Owners(rng), b.Owners(rng)
		if !reflect.DeepEqual(oa, ob) {
			t.Fatalf("range %d: owners differ by construction order: %v vs %v", rng, oa, ob)
		}
		if len(oa) != 3 {
			t.Fatalf("range %d: %d owners, want 3", rng, len(oa))
		}
		seen := map[string]bool{}
		for _, id := range oa {
			if seen[id] {
				t.Fatalf("range %d: duplicate owner %s in %v", rng, id, oa)
			}
			seen[id] = true
			if !a.OwnedBy(rng, id) {
				t.Fatalf("range %d: OwnedBy(%s) false despite membership in %v", rng, id, oa)
			}
		}
		if a.OwnedBy(rng, "nope") {
			t.Fatalf("range %d owned by a stranger", rng)
		}
	}
}

func TestRingClampsReplicasToMembers(t *testing.T) {
	r := mustRing(t, 3, 8, "a", "b")
	for rng := 0; rng < 8; rng++ {
		if got := len(r.Owners(rng)); got != 2 {
			t.Fatalf("range %d: %d owners from a 2-node ring", rng, got)
		}
	}
}

func TestRingDistributionRoughlyBalanced(t *testing.T) {
	// With 16 vnodes per member the head-ownership counts should not be
	// pathologically skewed: no member should own more than ~3x its share.
	r := mustRing(t, 1, 256, "n0", "n1", "n2", "n3")
	counts := map[string]int{}
	for rng := 0; rng < 256; rng++ {
		counts[r.Owners(rng)[0]]++
	}
	for id, c := range counts {
		if c == 0 {
			t.Fatalf("%s owns nothing", id)
		}
		if c > 3*256/4 {
			t.Fatalf("%s heads %d/256 ranges", id, c)
		}
	}
	if len(counts) != 4 {
		t.Fatalf("only %d members head ranges: %v", len(counts), counts)
	}
}

func TestRingJoinLeaveRoundTrip(t *testing.T) {
	r := mustRing(t, 2, 32, "a", "b", "c")
	grown, err := r.WithJoin(Member{ID: "d"})
	if err != nil {
		t.Fatal(err)
	}
	if len(grown.Members()) != 4 {
		t.Fatalf("join yielded %d members", len(grown.Members()))
	}
	if _, err := r.WithJoin(Member{ID: "a"}); err == nil {
		t.Fatal("duplicate join accepted")
	}
	back, err := grown.WithLeave("d")
	if err != nil {
		t.Fatal(err)
	}
	for rng := 0; rng < 32; rng++ {
		if !reflect.DeepEqual(r.Owners(rng), back.Owners(rng)) {
			t.Fatalf("range %d: join+leave changed placement", rng)
		}
	}
	if _, err := grown.WithLeave("zz"); err == nil {
		t.Fatal("leave of a stranger accepted")
	}
}

func TestRingMovesMinimal(t *testing.T) {
	// Consistent hashing's point: a join only moves ranges onto the new
	// node, never between survivors.
	old := mustRing(t, 2, 64, "a", "b", "c")
	grown, err := old.WithJoin(Member{ID: "d"})
	if err != nil {
		t.Fatal(err)
	}
	moves := Moves(old, grown)
	if len(moves) == 0 {
		t.Fatal("join moved nothing — new node owns no ranges")
	}
	for _, mv := range moves {
		if mv.Target != "d" {
			t.Fatalf("join moved range %d to survivor %s", mv.Range, mv.Target)
		}
		if !grown.OwnedBy(mv.Range, "d") {
			t.Fatalf("move target does not own range %d", mv.Range)
		}
		if old.OwnedBy(mv.Range, "d") {
			t.Fatalf("range %d already on d before the join", mv.Range)
		}
	}
	// Moves must be deterministic.
	again := Moves(old, grown)
	if !reflect.DeepEqual(moves, again) {
		t.Fatal("Moves not deterministic")
	}
}

// chainDigest hashes every range's chain, in range order.
func chainDigest(r *Ring) string {
	h := sha256.New()
	for rng := 0; rng < r.Ranges; rng++ {
		fmt.Fprintf(h, "%d:%s;", rng, strings.Join(r.Owners(rng), ","))
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// movesDigest hashes a transfer list.
func movesDigest(moves []Move) string {
	h := sha256.New()
	for _, mv := range moves {
		fmt.Fprintf(h, "%d>%s;", mv.Range, mv.Target)
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// TestRingPlacementGolden pins placement byte for byte: every chain of the
// benchmark's ring and of a larger one, and the transfers of a join and a
// leave. Journals, churn seeds and running fleets all assume the same
// range lands on the same chain; a change here re-places live data.
func TestRingPlacementGolden(t *testing.T) {
	bench := mustRing(t, 3, 64, "n0", "n1", "n2")
	five := mustRing(t, 3, 256, "n0", "n1", "n2", "n3", "n4")
	grown, err := bench.WithJoin(Member{ID: "n3"})
	if err != nil {
		t.Fatal(err)
	}
	shrunk, err := five.WithLeave("n2")
	if err != nil {
		t.Fatal(err)
	}
	join, leave := Moves(bench, grown), Moves(five, shrunk)
	for _, tc := range []struct{ name, got, want string }{
		{"3 members, 64 ranges", chainDigest(bench), "29ef7773af77e6d5"},
		{"5 members, 256 ranges", chainDigest(five), "5603bd0921919695"},
		{"join n3", fmt.Sprintf("%d %s", len(join), movesDigest(join)), "43 2267d9113270bee2"},
		{"leave n2", fmt.Sprintf("%d %s", len(leave), movesDigest(leave)), "172 9fe7beebd79cadcb"},
	} {
		if tc.got != tc.want {
			t.Errorf("%s: placement %s, want %s", tc.name, tc.got, tc.want)
		}
	}
}

// TestRingOwnersIsolated checks that a caller appending to one chain cannot
// write into the next range's.
func TestRingOwnersIsolated(t *testing.T) {
	r := mustRing(t, 2, 8, "a", "b", "c")
	want := append([]string(nil), r.Owners(1)...)
	_ = append(r.Owners(0), "x")
	if got := r.Owners(1); !reflect.DeepEqual(got, want) {
		t.Fatalf("Owners(1) = %v after appending to Owners(0), want %v", got, want)
	}
}

func TestRingRangeOfAndSize(t *testing.T) {
	r := mustRing(t, 2, 8, "a", "b")
	if r.Size() != 8*4096 {
		t.Fatalf("Size = %d", r.Size())
	}
	if r.RangeOf(0) != 0 || r.RangeOf(4095) != 0 || r.RangeOf(4096) != 1 || r.RangeOf(8*4096-1) != 7 {
		t.Fatal("RangeOf misassigns boundaries")
	}
	if _, ok := r.Member("a"); !ok {
		t.Fatal("Member(a) not found")
	}
	if _, ok := r.Member("zz"); ok {
		t.Fatal("Member(zz) found")
	}
}
