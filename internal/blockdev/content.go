package blockdev

import (
	"bytes"
	"fmt"
	"slices"
)

// Content models what a device durably stores, independent of timing. Pages
// are addressed by index (byte offset / PageSize). Each page holds a Tag;
// pages that carry real serialized metadata (the SRC segment summaries) may
// additionally hold a blob of bytes.
//
// Writes land in a volatile region first. FlushContent commits everything
// written so far; Crash discards the volatile region, reverting each dirty
// page to its last committed value — the simulation's model of a power
// failure with a volatile device write cache.
//
// The store is one dense array indexed by page, allocated by the first tag,
// blob or corruption write: a device that only ever carries timing traffic
// never allocates it, and its trims only append to the write log.
type Content struct {
	pages int64
	page  []pageState // nil until the first tag, blob or corruption write

	// undo holds, oldest first, the state a page had before each volatile
	// write changed it. A page may appear more than once; Crash restores
	// newest first, so the oldest pre-image — the committed state — wins.
	undo []undoRec

	// log is the ordered sequence of volatile writes since the last flush.
	// CrashPartial replays an arbitrary subset of it over the committed
	// state; FlushContent (and so Crash) resets it.
	log []writeEntry
}

// pageState is what one page holds; the zero value is an erased page.
type pageState struct {
	tag  Tag
	blob []byte // immutable once stored; nil when the page holds no blob
	// corrupt marks silent corruption of the stored copy. A crash that
	// reverts to a committed copy brings that copy's mark back with it,
	// while corruption struck after the dirtying write vanishes.
	corrupt bool
}

func (s *pageState) empty() bool { return s.tag.IsZero() && s.blob == nil && !s.corrupt }

// undoRec is the pre-image of one page, saved before a volatile write.
type undoRec struct {
	page int64
	was  pageState
}

// WriteKind labels one entry of the volatile write log.
type WriteKind uint8

const (
	// WriteTagKind is a single-page tag write.
	WriteTagKind WriteKind = iota + 1
	// WriteBlobKind is a single-page metadata blob write.
	WriteBlobKind
	// WriteTrimKind is a multi-page trim.
	WriteTrimKind
)

func (k WriteKind) String() string {
	switch k {
	case WriteTagKind:
		return "tag"
	case WriteBlobKind:
		return "blob"
	case WriteTrimKind:
		return "trim"
	}
	return "unknown"
}

// writeEntry is one volatile write. Blob slices are the same immutable
// backing arrays stored in the page array, so the log adds no copies.
type writeEntry struct {
	kind  WriteKind
	page  int64
	tag   Tag
	blob  []byte
	count int64 // trim page count
}

// WriteRecord describes one write-log entry for schedule construction and
// violation reports.
type WriteRecord struct {
	Kind  WriteKind
	Page  int64
	Count int64 // pages trimmed (WriteTrimKind only)
	Len   int   // blob length in bytes (WriteBlobKind only)
}

// NewContent creates a content store for a device with the given capacity in
// bytes.
func NewContent(capacity int64) *Content {
	return &Content{pages: capacity / PageSize}
}

// Clone returns an independent copy of the store, including its volatile
// region and write log. Blob backing arrays are shared: they are immutable
// (every write installs a fresh slice), so the clone is cheap and safe.
func (c *Content) Clone() *Content {
	return &Content{
		pages: c.pages,
		page:  slices.Clone(c.page),
		undo:  slices.Clone(c.undo),
		log:   slices.Clone(c.log),
	}
}

// Committed returns an independent copy of what Crash would leave: the
// committed pages, with no volatile writes and no write log to copy.
func (c *Content) Committed() *Content {
	cc := &Content{pages: c.pages, page: slices.Clone(c.page)}
	for i := len(c.undo) - 1; i >= 0; i-- {
		cc.page[c.undo[i].page] = c.undo[i].was
	}
	return cc
}

// Pages reports the number of pages the store covers.
func (c *Content) Pages() int64 { return c.pages }

func (c *Content) check(page int64) error {
	if page < 0 || page >= c.pages {
		return fmt.Errorf("%w: page %d of %d", ErrOutOfRange, page, c.pages)
	}
	return nil
}

// at returns what page holds; page must be in range.
func (c *Content) at(page int64) pageState {
	if c.page == nil {
		return pageState{}
	}
	return c.page[page]
}

// state returns the page array, allocating it on first use.
func (c *Content) state() []pageState {
	if c.page == nil {
		c.page = make([]pageState, c.pages)
	}
	return c.page
}

// set installs s at page (volatile), saving the page's previous state for
// Crash.
func (c *Content) set(page int64, s pageState) {
	st := c.state()
	c.undo = append(c.undo, undoRec{page: page, was: st[page]})
	st[page] = s
}

// WriteTag records the tag for a page (volatile until FlushContent).
func (c *Content) WriteTag(page int64, t Tag) error {
	if err := c.check(page); err != nil {
		return err
	}
	c.log = append(c.log, writeEntry{kind: WriteTagKind, page: page, tag: t})
	c.set(page, pageState{tag: t})
	return nil
}

// WriteBlob records serialized metadata bytes for a page (volatile until
// FlushContent). The blob is copied.
func (c *Content) WriteBlob(page int64, b []byte) error {
	if err := c.check(page); err != nil {
		return err
	}
	if int64(len(b)) > PageSize {
		return fmt.Errorf("%w: blob of %d bytes exceeds page size", ErrBadRequest, len(b))
	}
	cp := make([]byte, len(b))
	copy(cp, b)
	c.log = append(c.log, writeEntry{kind: WriteBlobKind, page: page, blob: cp})
	c.set(page, pageState{blob: cp})
	return nil
}

// ReadTag returns the tag stored at page. Corrupted pages return a perturbed
// tag, modelling silent data corruption the checksum layer must catch.
func (c *Content) ReadTag(page int64) (Tag, error) {
	if err := c.check(page); err != nil {
		return ZeroTag, err
	}
	s := c.at(page)
	if s.corrupt {
		s.tag.Lo ^= 0xdeadbeef
		s.tag.Hi ^= 1
	}
	return s.tag, nil
}

// ReadBlob returns a copy of the metadata blob stored at page, or nil if the
// page holds no blob. Corrupted blobs have their first byte flipped.
func (c *Content) ReadBlob(page int64) ([]byte, error) {
	if err := c.check(page); err != nil {
		return nil, err
	}
	s := c.at(page)
	cp := bytes.Clone(s.blob)
	if s.corrupt && len(cp) > 0 {
		cp[0] ^= 0xff
	}
	return cp, nil
}

// Trim erases a range of pages (volatile until FlushContent). Only pages
// that held something get a pre-image; the rest of the range is already
// what a crash would restore.
func (c *Content) Trim(page, count int64) error {
	if err := c.check(page); err != nil {
		return err
	}
	if count < 0 || page+count > c.pages {
		return fmt.Errorf("%w: trim [%d,%d)", ErrOutOfRange, page, page+count)
	}
	c.log = append(c.log, writeEntry{kind: WriteTrimKind, page: page, count: count})
	if c.page == nil {
		return nil
	}
	span := c.page[page : page+count]
	for i := range span {
		if !span[i].empty() {
			c.undo = append(c.undo, undoRec{page: page + int64(i), was: span[i]})
		}
	}
	clear(span)
	return nil
}

// FlushContent commits all volatile writes; after it returns, Crash no
// longer reverts them and the write log starts over.
func (c *Content) FlushContent() {
	c.undo = c.undo[:0]
	c.log = c.log[:0]
}

// Crash discards all volatile writes, reverting dirtied pages to their last
// committed contents (corruption marks included: a mark on the committed
// copy returns with it, one acquired after dirtying vanishes). It models
// power failure with a volatile write cache.
func (c *Content) Crash() {
	for i := len(c.undo) - 1; i >= 0; i-- {
		c.page[c.undo[i].page] = c.undo[i].was
	}
	c.FlushContent()
}

// WriteLogLen reports the number of volatile writes since the last flush.
func (c *Content) WriteLogLen() int { return len(c.log) }

// WriteLog describes the volatile write log, oldest first, for schedule
// construction and violation reports.
func (c *Content) WriteLog() []WriteRecord {
	recs := make([]WriteRecord, len(c.log))
	for i, e := range c.log {
		recs[i] = WriteRecord{Kind: e.kind, Page: e.page, Count: e.count, Len: len(e.blob)}
	}
	return recs
}

// CrashPartial models a power failure in which only a subset of the volatile
// write log reached media: it reverts to the committed state, then replays
// the scheduled entries in log order and commits the result. A torn blob
// write persists only its first k bytes, with the rest of the page still
// holding whatever the committed copy had there — the partially-programmed
// summary page whose CRC the recovery scan must catch. Crash is equivalent
// to CrashPartial of the empty schedule.
func (c *Content) CrashPartial(s CrashSchedule) error {
	if err := s.validate(len(c.log)); err != nil {
		return err
	}
	kept := make([]writeEntry, 0, len(c.log))
	for i, e := range c.log {
		if !s.Keep[i] {
			continue
		}
		if k, torn := s.Torn[i]; torn {
			if e.kind != WriteBlobKind {
				return fmt.Errorf("%w: torn write %d is %s, not a blob", ErrBadRequest, i, e.kind)
			}
			if k < 0 || k >= len(e.blob) {
				return fmt.Errorf("%w: torn write %d at byte %d of %d", ErrBadRequest, i, k, len(e.blob))
			}
			e.blob = e.blob[:k]
		}
		kept = append(kept, e)
	}
	c.Crash()
	for _, e := range kept {
		var err error
		switch e.kind {
		case WriteTagKind:
			err = c.WriteTag(e.page, e.tag)
		case WriteBlobKind:
			err = c.writeTornBlob(e.page, e.blob)
		case WriteTrimKind:
			err = c.Trim(e.page, e.count)
		}
		if err != nil {
			return err
		}
	}
	c.FlushContent()
	return nil
}

// writeTornBlob persists prefix over the committed blob at page, keeping the
// committed bytes beyond len(prefix) if the old blob was longer. For untorn
// entries prefix is the full blob and this is a plain WriteBlob.
func (c *Content) writeTornBlob(page int64, prefix []byte) error {
	old := c.at(page).blob
	if len(old) <= len(prefix) {
		return c.WriteBlob(page, prefix)
	}
	merged := make([]byte, len(old))
	copy(merged, prefix)
	copy(merged[len(prefix):], old[len(prefix):])
	return c.WriteBlob(page, merged)
}

// Corrupt marks a page as silently corrupted: subsequent reads return
// perturbed content until the page is rewritten or trimmed.
func (c *Content) Corrupt(page int64) error {
	if err := c.check(page); err != nil {
		return err
	}
	c.state()[page].corrupt = true
	return nil
}
