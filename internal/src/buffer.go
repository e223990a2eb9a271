package src

import "srccache/internal/blockdev"

// bufSlot is one page waiting in a segment buffer.
type bufSlot struct {
	lba   int64
	tag   blockdev.Tag // content tag (TrackContent only)
	valid bool
}

// segBuffer is an in-RAM segment buffer (paper §4.1): SRC keeps one for
// dirty data and one for clean data, each one segment's payload long.
//
// Capacity contract: the capacity is fixed when the buffer is built and is
// what Cap reports and Full tests against, whatever the slice underneath
// has grown to. Every caller checks Full after its Append and writes the
// buffer out as a segment when it is, so between requests a buffer holds at
// most Cap slots. Inside a request it may overshoot, by one page per append
// made while it was already full: a GC copy that lands in the buffer whose
// own segment write started the collection, or an append that follows an
// abandoned segment write (whose pages came back). The Full check after
// that append writes one segment's worth and re-buffers the rest as
// writeSegment's overflow. Only abandoned writes let the overshoot outlive
// a request, one page per abandon, and a device can cause at most
// ErrorBudget of those before its column fail-stops.
type segBuffer struct {
	slots    []bufSlot
	capacity int
	live     int
}

func newSegBuffer(capacity int64) *segBuffer {
	return &segBuffer{slots: make([]bufSlot, 0, capacity), capacity: int(capacity)}
}

// Cap reports the buffer capacity in pages: one segment's payload.
func (b *segBuffer) Cap() int { return b.capacity }

// Len reports appended slots including invalidated ones.
func (b *segBuffer) Len() int { return len(b.slots) }

// Live reports slots still valid.
func (b *segBuffer) Live() int { return b.live }

// Full reports whether the buffer holds a segment's worth of slots (or
// more) and must be written out.
func (b *segBuffer) Full() bool { return len(b.slots) >= b.capacity }

// Empty reports whether nothing (valid) is buffered.
func (b *segBuffer) Empty() bool { return b.live == 0 }

// Append adds a page and returns its slot index. The caller checks Full
// afterwards.
func (b *segBuffer) Append(lba int64, tag blockdev.Tag) int {
	b.slots = append(b.slots, bufSlot{lba: lba, tag: tag, valid: true})
	b.live++
	return len(b.slots) - 1
}

// Invalidate kills a previously appended slot (its page was overwritten or
// superseded before the buffer was written out).
func (b *segBuffer) Invalidate(i int) {
	if i >= 0 && i < len(b.slots) && b.slots[i].valid {
		b.slots[i].valid = false
		b.live--
	}
}

// SetTag updates the content tag of a live slot (rewrite of a buffered
// dirty page).
func (b *segBuffer) SetTag(i int, tag blockdev.Tag) {
	if i >= 0 && i < len(b.slots) {
		b.slots[i].tag = tag
	}
}

// Reset empties the buffer, retaining capacity.
func (b *segBuffer) Reset() {
	b.slots = b.slots[:0]
	b.live = 0
}

// Take empties the buffer and returns its slots; the buffer carries on in
// spare's array. Handing each taken slice back as the next spare seals
// segments without copying or allocating.
func (b *segBuffer) Take(spare []bufSlot) []bufSlot {
	slots := b.slots
	b.slots, b.live = spare[:0], 0
	return slots
}
