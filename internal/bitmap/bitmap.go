// Package bitmap provides a dense bitset. SRC uses one bit per cache page
// to track data hotness (paper §4.2: "Hotness of data is determined by a
// per-page based bitmap stored in RAM").
package bitmap

// Bitmap is a fixed-size bitset.
type Bitmap struct {
	words []uint64
	n     int64
}

// New creates a bitmap of n bits, all clear.
func New(n int64) *Bitmap {
	return &Bitmap{words: make([]uint64, (n+63)/64), n: n}
}

// Len reports the number of bits.
func (b *Bitmap) Len() int64 { return b.n }

// Get reports bit i. Out-of-range indices read as false.
func (b *Bitmap) Get(i int64) bool {
	if i < 0 || i >= b.n {
		return false
	}
	return b.words[i>>6]&(1<<uint(i&63)) != 0
}

// Set sets bit i. Out-of-range indices are ignored.
func (b *Bitmap) Set(i int64) {
	if i < 0 || i >= b.n {
		return
	}
	b.words[i>>6] |= 1 << uint(i&63)
}

// Clear clears bit i. Out-of-range indices are ignored.
func (b *Bitmap) Clear(i int64) {
	if i < 0 || i >= b.n {
		return
	}
	b.words[i>>6] &^= 1 << uint(i&63)
}

// Reset clears every bit.
func (b *Bitmap) Reset() {
	clear(b.words)
}
