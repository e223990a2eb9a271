package blockdev

import (
	"bytes"
	"maps"
	"math/rand"
	"reflect"
	"slices"
	"testing"
)

func newTestContent(t *testing.T) *Content {
	t.Helper()
	return NewContent(64 * PageSize)
}

func writeTag(t *testing.T, c *Content, page int64, tag Tag) {
	t.Helper()
	if err := c.WriteTag(page, tag); err != nil {
		t.Fatalf("WriteTag(%d): %v", page, err)
	}
}

func writeBlob(t *testing.T, c *Content, page int64, b []byte) {
	t.Helper()
	if err := c.WriteBlob(page, b); err != nil {
		t.Fatalf("WriteBlob(%d): %v", page, err)
	}
}

func readTag(t *testing.T, c *Content, page int64) Tag {
	t.Helper()
	tag, err := c.ReadTag(page)
	if err != nil {
		t.Fatalf("ReadTag(%d): %v", page, err)
	}
	return tag
}

func readBlob(t *testing.T, c *Content, page int64) []byte {
	t.Helper()
	b, err := c.ReadBlob(page)
	if err != nil {
		t.Fatalf("ReadBlob(%d): %v", page, err)
	}
	return b
}

// TestCrashPartialPrefix checks that prefix schedules persist exactly the
// first k writes, in order, and that the drop-all and keep-all extremes
// match Crash() and FlushContent() respectively.
func TestCrashPartialPrefix(t *testing.T) {
	mk := func() *Content {
		c := newTestContent(t)
		writeTag(t, c, 0, Tag{Hi: 9, Lo: 9})
		c.FlushContent()
		// Volatile window: tag 1, tag 2, blob 3, trim of [0,2).
		writeTag(t, c, 1, Tag{Hi: 1, Lo: 1})
		writeTag(t, c, 2, Tag{Hi: 2, Lo: 2})
		writeBlob(t, c, 3, []byte("summary-blob"))
		if err := c.Trim(0, 2); err != nil {
			t.Fatalf("Trim: %v", err)
		}
		return c
	}

	c := mk()
	if got := c.WriteLogLen(); got != 4 {
		t.Fatalf("WriteLogLen = %d, want 4", got)
	}

	// Drop-all equals Crash.
	if err := c.CrashPartial(PrefixSchedule(4, 0)); err != nil {
		t.Fatalf("CrashPartial(drop-all): %v", err)
	}
	if got := readTag(t, c, 0); got != (Tag{Hi: 9, Lo: 9}) {
		t.Fatalf("page 0 after drop-all = %v, want committed tag", got)
	}
	if got := readTag(t, c, 1); !got.IsZero() {
		t.Fatalf("page 1 after drop-all = %v, want zero", got)
	}
	if readBlob(t, c, 3) != nil {
		t.Fatal("page 3 blob survived drop-all crash")
	}

	// Keep-all equals a completed flush: trim wins over page 0's old tag.
	c = mk()
	if err := c.CrashPartial(PrefixSchedule(4, 4)); err != nil {
		t.Fatalf("CrashPartial(keep-all): %v", err)
	}
	if got := readTag(t, c, 0); !got.IsZero() {
		t.Fatalf("page 0 after keep-all = %v, want trimmed", got)
	}
	if got := readTag(t, c, 2); got != (Tag{Hi: 2, Lo: 2}) {
		t.Fatalf("page 2 after keep-all = %v", got)
	}
	if got := readBlob(t, c, 3); !bytes.Equal(got, []byte("summary-blob")) {
		t.Fatalf("page 3 blob after keep-all = %q", got)
	}
	if c.WriteLogLen() != 0 || c.DirtyPages() != 0 {
		t.Fatal("CrashPartial must leave the store committed with an empty log")
	}

	// Prefix of 3: the trim never happened, page 0 keeps its committed tag.
	c = mk()
	if err := c.CrashPartial(PrefixSchedule(4, 3)); err != nil {
		t.Fatalf("CrashPartial(prefix 3): %v", err)
	}
	if got := readTag(t, c, 0); got != (Tag{Hi: 9, Lo: 9}) {
		t.Fatalf("page 0 after prefix-3 = %v, want committed tag", got)
	}
	if got := readTag(t, c, 1); got != (Tag{Hi: 1, Lo: 1}) {
		t.Fatalf("page 1 after prefix-3 = %v", got)
	}
	if got := readBlob(t, c, 3); !bytes.Equal(got, []byte("summary-blob")) {
		t.Fatalf("page 3 blob after prefix-3 = %q", got)
	}
}

// TestCrashPartialOmitOne drops a single mid-log write while later writes
// persist — the reorder-tier hazard a pure prefix model cannot express.
func TestCrashPartialOmitOne(t *testing.T) {
	c := newTestContent(t)
	writeTag(t, c, 1, Tag{Hi: 1, Lo: 1})
	writeTag(t, c, 2, Tag{Hi: 2, Lo: 2})
	writeTag(t, c, 3, Tag{Hi: 3, Lo: 3})
	if err := c.CrashPartial(OmitOneSchedule(3, 1)); err != nil {
		t.Fatalf("CrashPartial: %v", err)
	}
	if got := readTag(t, c, 1); got != (Tag{Hi: 1, Lo: 1}) {
		t.Fatalf("page 1 = %v, want kept", got)
	}
	if got := readTag(t, c, 2); !got.IsZero() {
		t.Fatalf("page 2 = %v, want omitted", got)
	}
	if got := readTag(t, c, 3); got != (Tag{Hi: 3, Lo: 3}) {
		t.Fatalf("page 3 = %v, want kept", got)
	}
}

// TestCrashPartialTornBlob persists a blob only through byte k-1: the tail
// keeps the committed copy's bytes, or is absent when the page held none.
func TestCrashPartialTornBlob(t *testing.T) {
	c := newTestContent(t)
	writeBlob(t, c, 5, []byte("OLD-OLD-OLD"))
	c.FlushContent()
	writeBlob(t, c, 5, []byte("new-new-new-long"))
	writeBlob(t, c, 6, []byte("fresh"))

	s := PrefixSchedule(2, 2).Tear(0, 4).Tear(1, 2)
	if err := c.CrashPartial(s); err != nil {
		t.Fatalf("CrashPartial: %v", err)
	}
	// Page 5: first 4 new bytes, then the committed copy's bytes 4..11; the
	// new write's bytes beyond the old length never reached media.
	if got := readBlob(t, c, 5); !bytes.Equal(got, []byte("new-OLD-OLD")) {
		t.Fatalf("torn blob over old = %q, want %q", got, "new-OLD-OLD")
	}
	// Page 6 had no committed blob: only the torn prefix exists.
	if got := readBlob(t, c, 6); !bytes.Equal(got, []byte("fr")) {
		t.Fatalf("torn blob over empty = %q, want %q", got, "fr")
	}
}

// TestCrashPartialSameSeedSameState pins determinism: two identical stores
// crashed with schedules drawn from equal seeds end up identical.
func TestCrashPartialSameSeedSameState(t *testing.T) {
	build := func() *Content {
		c := newTestContent(t)
		rng := rand.New(rand.NewSource(7))
		for i := 0; i < 40; i++ {
			page := int64(rng.Intn(60))
			switch rng.Intn(3) {
			case 0:
				writeTag(t, c, page, Tag{Hi: uint64(i), Lo: rng.Uint64()})
			case 1:
				b := make([]byte, 8+rng.Intn(24))
				rng.Read(b)
				writeBlob(t, c, page, b)
			case 2:
				if err := c.Trim(page, int64(1+rng.Intn(3))); err != nil {
					t.Fatalf("Trim: %v", err)
				}
			}
		}
		return c
	}
	crash := func(c *Content) {
		s := SubsetSchedule(c.WriteLogLen(), rand.New(rand.NewSource(11)), 0.5)
		if err := c.CrashPartial(s); err != nil {
			t.Fatalf("CrashPartial: %v", err)
		}
	}
	a, b := build(), build()
	crash(a)
	crash(b)
	for p := int64(0); p < a.Pages(); p++ {
		ta, tb := readTag(t, a, p), readTag(t, b, p)
		if ta != tb {
			t.Fatalf("page %d: tags diverge (%v vs %v)", p, ta, tb)
		}
		if !bytes.Equal(readBlob(t, a, p), readBlob(t, b, p)) {
			t.Fatalf("page %d: blobs diverge", p)
		}
	}
}

// TestCloneIndependence checks a Clone neither sees nor causes subsequent
// mutation of the original, volatile log included.
func TestCloneIndependence(t *testing.T) {
	c := newTestContent(t)
	writeTag(t, c, 1, Tag{Hi: 1, Lo: 1})
	writeBlob(t, c, 2, []byte("blob"))
	cp := c.Clone()

	writeTag(t, c, 1, Tag{Hi: 99, Lo: 99})
	writeTag(t, c, 4, Tag{Hi: 4, Lo: 4})
	if got := readTag(t, cp, 1); got != (Tag{Hi: 1, Lo: 1}) {
		t.Fatalf("clone page 1 = %v after original mutated", got)
	}
	if cp.WriteLogLen() != 2 {
		t.Fatalf("clone log len = %d, want 2", cp.WriteLogLen())
	}
	// Crash the clone: it reverts its own volatile writes only.
	cp.Crash()
	if got := readTag(t, cp, 1); !got.IsZero() {
		t.Fatalf("clone page 1 after crash = %v, want zero", got)
	}
	if got := readTag(t, c, 1); got != (Tag{Hi: 99, Lo: 99}) {
		t.Fatalf("original page 1 = %v after clone crash", got)
	}
}

// TestCorruptCrashInteraction pins the satellite contract: a crash restores
// the corruption mark if and only if the corruption struck the committed
// copy the crash reverts to. Corruption of data that never committed
// vanishes with it.
func TestCorruptCrashInteraction(t *testing.T) {
	// Corrupt before dirtying: the committed copy is the corrupted one, so
	// crash brings the mark back even though the overwrite cleared it.
	c := newTestContent(t)
	writeTag(t, c, 3, Tag{Hi: 3, Lo: 3})
	c.FlushContent()
	if err := c.Corrupt(3); err != nil {
		t.Fatalf("Corrupt: %v", err)
	}
	writeTag(t, c, 3, Tag{Hi: 30, Lo: 30}) // clears the mark, volatile
	if got := readTag(t, c, 3); got != (Tag{Hi: 30, Lo: 30}) {
		t.Fatalf("overwrite did not clear corruption: %v", got)
	}
	c.Crash()
	want := Tag{Hi: 3, Lo: 3}
	want.Lo ^= 0xdeadbeef
	want.Hi ^= 1
	if got := readTag(t, c, 3); got != want {
		t.Fatalf("crash lost the committed copy's corruption mark: got %v, want perturbed %v", got, want)
	}

	// Corrupt after dirtying: the corruption hit data that never committed,
	// so crash reverts to the clean committed copy, mark cleared.
	c = newTestContent(t)
	writeTag(t, c, 3, Tag{Hi: 3, Lo: 3})
	c.FlushContent()
	writeTag(t, c, 3, Tag{Hi: 30, Lo: 30})
	if err := c.Corrupt(3); err != nil {
		t.Fatalf("Corrupt: %v", err)
	}
	c.Crash()
	if got := readTag(t, c, 3); got != (Tag{Hi: 3, Lo: 3}) {
		t.Fatalf("crash kept a corruption mark for never-committed data: %v", got)
	}

	// A write persisted by a partial crash is fresh media data: the mark
	// from the committed copy does not survive onto it.
	c = newTestContent(t)
	writeTag(t, c, 3, Tag{Hi: 3, Lo: 3})
	c.FlushContent()
	if err := c.Corrupt(3); err != nil {
		t.Fatalf("Corrupt: %v", err)
	}
	writeTag(t, c, 3, Tag{Hi: 30, Lo: 30})
	if err := c.CrashPartial(PrefixSchedule(1, 1)); err != nil {
		t.Fatalf("CrashPartial: %v", err)
	}
	if got := readTag(t, c, 3); got != (Tag{Hi: 30, Lo: 30}) {
		t.Fatalf("persisted overwrite should read clean, got %v", got)
	}
}

// TestCrashScheduleValidate rejects schedules that disagree with the log.
func TestCrashScheduleValidate(t *testing.T) {
	c := newTestContent(t)
	writeTag(t, c, 1, Tag{Hi: 1, Lo: 1})
	writeBlob(t, c, 2, []byte("blob"))
	if err := c.CrashPartial(PrefixSchedule(5, 0)); err == nil {
		t.Fatal("length-mismatched schedule accepted")
	}
	if err := c.CrashPartial(PrefixSchedule(2, 2).Tear(0, 1)); err == nil {
		t.Fatal("torn tag write accepted")
	}
	c = newTestContent(t)
	writeBlob(t, c, 2, []byte("blob"))
	if err := c.CrashPartial(PrefixSchedule(1, 1).Tear(0, 9)); err == nil {
		t.Fatal("torn point beyond blob accepted")
	}
	c = newTestContent(t)
	writeBlob(t, c, 2, []byte("blob"))
	s := PrefixSchedule(1, 0).Tear(0, 1)
	if err := c.CrashPartial(s); err == nil {
		t.Fatal("torn mark on dropped write accepted")
	}
}

// TestTrimOfEmptyStoreAllocatesNothing: a store that never held a tag, blob
// or corruption mark — every device carrying only timing traffic — has no
// page array, so a whole-erase-group trim only logs itself.
func TestTrimOfEmptyStoreAllocatesNothing(t *testing.T) {
	c := NewContent(4096 * PageSize)
	trim := func() {
		n := c.WriteLogLen()
		if err := c.Trim(1024, 1024); err != nil {
			t.Fatal(err)
		}
		if got := c.WriteLogLen(); got != n+1 {
			t.Fatalf("WriteLogLen %d after a trim, want %d", got, n+1)
		}
		c.FlushContent()
	}
	if n := testing.AllocsPerRun(100, trim); n != 0 {
		t.Errorf("1024-page trim of an empty store: %v allocs, want 0", n)
	}
	if c.page != nil || c.DirtyPages() != 0 {
		t.Fatal("trims of an empty store allocated pages or left them dirty")
	}
}

// refContent is a map-based reference model of Content, the fuzz oracle for
// the dense store. It shadows each page's committed state at the first
// touch after a flush. A trim touches only pages that hold something, the
// one place DirtyPages changed meaning when the store went dense.
type refContent struct {
	pages       int64
	cur, shadow map[int64]refPage
	log         []writeEntry
}

type refPage struct {
	tag     Tag
	blob    []byte
	corrupt bool
}

func newRef(pages int64) *refContent {
	return &refContent{pages: pages, cur: map[int64]refPage{}, shadow: map[int64]refPage{}}
}

func (m *refContent) clone() *refContent {
	cp := newRef(m.pages)
	maps.Copy(cp.cur, m.cur)
	maps.Copy(cp.shadow, m.shadow)
	cp.log = slices.Clone(m.log)
	return cp
}

func (m *refContent) ok(p int64) bool { return p >= 0 && p < m.pages }

func (m *refContent) put(e writeEntry, s refPage) {
	if _, dirty := m.shadow[e.page]; !dirty {
		m.shadow[e.page] = m.cur[e.page]
	}
	m.cur[e.page] = s
	m.log = append(m.log, e)
}

func (m *refContent) trim(p, n int64) {
	m.log = append(m.log, writeEntry{kind: WriteTrimKind, page: p, count: n})
	for q := p; q < p+n; q++ {
		s := m.cur[q]
		if _, dirty := m.shadow[q]; !dirty && (!s.tag.IsZero() || s.blob != nil || s.corrupt) {
			m.shadow[q] = s
		}
		delete(m.cur, q)
	}
}

func (m *refContent) crash() {
	maps.Copy(m.cur, m.shadow)
	clear(m.shadow)
	m.log = nil
}

// crashPartial mirrors CrashPartial's checks and replay; false means the
// schedule is invalid and nothing changed.
func (m *refContent) crashPartial(s CrashSchedule) bool {
	if s.validate(len(m.log)) != nil {
		return false
	}
	var kept []writeEntry
	for i, e := range m.log {
		if k, torn := s.Torn[i]; torn {
			if e.kind != WriteBlobKind || k < 0 || k >= len(e.blob) {
				return false
			}
			e.blob = e.blob[:k]
		}
		if s.Keep[i] {
			kept = append(kept, e)
		}
	}
	m.crash()
	for _, e := range kept {
		switch e.kind {
		case WriteTagKind:
			m.put(e, refPage{tag: e.tag})
		case WriteBlobKind:
			b := append([]byte{}, e.blob...)
			if old := m.cur[e.page].blob; len(old) > len(b) {
				b = append(b, old[len(b):]...)
			}
			m.put(e, refPage{blob: b})
		case WriteTrimKind:
			m.trim(e.page, e.count)
		}
	}
	clear(m.shadow)
	m.log = nil
	return true
}

func (m *refContent) readTag(p int64) Tag {
	s := m.cur[p]
	if s.corrupt {
		s.tag = s.tag.XOR(Tag{Hi: 1, Lo: 0xdeadbeef})
	}
	return s.tag
}

func (m *refContent) readBlob(p int64) []byte {
	s := m.cur[p]
	if s.blob == nil {
		return nil
	}
	b := append([]byte{}, s.blob...)
	if s.corrupt && len(b) > 0 {
		b[0] ^= 0xff
	}
	return b
}

func (m *refContent) writeLog() []WriteRecord {
	recs := make([]WriteRecord, len(m.log))
	for i, e := range m.log {
		recs[i] = WriteRecord{Kind: e.kind, Page: e.page, Count: e.count, Len: len(e.blob)}
	}
	return recs
}

// sameContent fails unless c reads exactly like the model m: every page's
// tag and blob (nil and empty blobs differ), the write log and DirtyPages.
func sameContent(t *testing.T, what string, c *Content, m *refContent) {
	t.Helper()
	for p := int64(0); p < m.pages; p++ {
		tag, err := c.ReadTag(p)
		if err != nil || tag != m.readTag(p) {
			t.Fatalf("%s: page %d tag %v (%v), model %v", what, p, tag, err, m.readTag(p))
		}
		got, err := c.ReadBlob(p)
		want := m.readBlob(p)
		if err != nil || !bytes.Equal(got, want) || (got == nil) != (want == nil) {
			t.Fatalf("%s: page %d blob %q (%v), model %q", what, p, got, err, want)
		}
	}
	if got, want := c.WriteLog(), m.writeLog(); !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: write log %v, model %v", what, got, want)
	}
	if got, want := c.DirtyPages(), len(m.shadow); got != want {
		t.Fatalf("%s: %d dirty pages, model %d", what, got, want)
	}
}

// FuzzContentOps decodes a byte string into a sequence of Content operations
// — op byte, then its arguments — and runs it against the dense store and
// the map model side by side, with a clone of each taken along the way, and
// checks after every op that both pairs read alike, and that the store's
// Committed copy reads like the crashed model. Pages run one past the end so
// out-of-range calls must fail alike too.
//
//	0 WriteTag page hi lo    3 Corrupt page   6 CrashPartial, one byte per log entry:
//	1 WriteBlob page n v     4 FlushContent     bit 0 keep, bits 1-2 both set tear at
//	2 Trim page n            5 Crash            the rest mod the blob length
//	7 Clone                  8 Crash the clones
func FuzzContentOps(f *testing.F) {
	// Trim over corrupt committed pages, one tagged and one holding only
	// the mark, then crash: both marks return.
	f.Add([]byte{0, 3, 7, 7, 4, 3, 3, 3, 4, 2, 2, 3, 5})
	// A torn blob over a longer committed blob keeps the old tail.
	f.Add([]byte{1, 5, 8, 'a', 4, 1, 5, 3, 'x', 6, 6 | 2<<3 | 1})
	// Crash after trimming a written page, with a clone taken in between.
	f.Add([]byte{0, 1, 9, 9, 4, 0, 2, 5, 5, 2, 0, 4, 7, 5, 8})
	f.Fuzz(func(t *testing.T, ops []byte) {
		const pages = 16
		if len(ops) > 256 {
			ops = ops[:256] // every op rechecks every page and the log
		}
		c, m := NewContent(pages*PageSize), newRef(pages)
		cc, mc := c.Clone(), m.clone()
		next := func() byte {
			if len(ops) == 0 {
				return 0
			}
			b := ops[0]
			ops = ops[1:]
			return b
		}
		page := func() int64 { return int64(next()) % (pages + 1) }
		for step := 0; len(ops) > 0; step++ {
			var err error
			valid := true
			switch op := next() % 9; op {
			case 0:
				p, tag := page(), Tag{Hi: uint64(next()), Lo: uint64(next())}
				if err, valid = c.WriteTag(p, tag), m.ok(p); valid {
					m.put(writeEntry{kind: WriteTagKind, page: p, tag: tag}, refPage{tag: tag})
				}
			case 1:
				p, b := page(), make([]byte, next()%9)
				v := next()
				for i := range b {
					b[i] = v + byte(i)
				}
				if err, valid = c.WriteBlob(p, b), m.ok(p); valid {
					b = slices.Clone(b)
					m.put(writeEntry{kind: WriteBlobKind, page: p, blob: b}, refPage{blob: b})
				}
			case 2:
				p, n := page(), int64(next()%6)
				if err, valid = c.Trim(p, n), m.ok(p) && p+n <= pages; valid {
					m.trim(p, n)
				}
			case 3:
				p := page()
				if err, valid = c.Corrupt(p), m.ok(p); valid {
					s := m.cur[p]
					s.corrupt = true
					m.cur[p] = s
				}
			case 4:
				c.FlushContent()
				clear(m.shadow)
				m.log = nil
			case 5:
				c.Crash()
				m.crash()
			case 6:
				s := PrefixSchedule(len(m.log), 0)
				for i, e := range m.log {
					b := next()
					s.Keep[i] = b&1 != 0
					if b&6 == 6 {
						s = s.Tear(i, int(b>>3)%max(1, len(e.blob)))
					}
				}
				err, valid = c.CrashPartial(s), m.crashPartial(s)
			case 7:
				cc, mc = c.Clone(), m.clone()
			case 8:
				cc.Crash()
				mc.crash()
			}
			if (err == nil) != valid {
				t.Fatalf("step %d: error %v, model valid %v", step, err, valid)
			}
			sameContent(t, "store", c, m)
			sameContent(t, "clone", cc, mc)
			committed := m.clone()
			committed.crash()
			sameContent(t, "committed copy", c.Committed(), committed)
		}
	})
}
