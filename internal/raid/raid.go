// Package raid is a fault-free performance model of md RAID for the
// baselines and primary: levels 0, 1 (mirrored pairs, i.e. RAID-10 when
// more than one pair), 4 and 5 over blockdev.Devices. It reproduces what the
// paper's baseline experiments measure — the read-modify-write small-write
// penalty of parity RAID, the full-stripe write optimization and mirrored
// writes.
//
// The paper's own SRC cache does NOT use this package: SRC performs its own
// log-structured striping and failure handling (internal/src). This package
// underpins the Bcache/Flashcache baselines ("Bcache5"/"Flashcache5"), the
// RAID-0 ablation and the RAID-10 primary storage. It recovers from nothing:
// a member error reaches the caller, wrapped with the member's index.
package raid

import (
	"fmt"

	"srccache/internal/blockdev"
)

// Level selects the RAID layout.
type Level int

// Supported levels. Level1 arranges devices as mirrored pairs with chunks
// striped across the pairs, so with 4 devices it is what storage vendors
// call RAID-10 (the paper's primary storage) and with 2 devices classic
// RAID-1. Level10 is an alias for that layout.
const (
	Level0 Level = iota + 1
	Level1
	Level4
	Level5
	Level10 = Level1
)

// String names the level as in the paper.
func (l Level) String() string {
	switch l {
	case Level0:
		return "RAID-0"
	case Level1:
		return "RAID-1"
	case Level4:
		return "RAID-4"
	case Level5:
		return "RAID-5"
	default:
		return fmt.Sprintf("RAID(%d)", int(l))
	}
}

// Array is a RAID volume over equal-sized devices.
type Array struct {
	level Level
	chunk int64
	devs  []blockdev.Device

	capacity int64
	dataDevs int // data chunks per stripe
	copies   int // members written per data chunk: 2 under Level1, else 1

	stats blockdev.Stats
	cont  *blockdev.Content
}

var _ blockdev.Device = (*Array)(nil)

// New assembles an array. All devices must have equal capacity, a multiple
// of the chunk size; the chunk size must be a multiple of the page size.
func New(level Level, chunk int64, devs []blockdev.Device) (*Array, error) {
	if len(devs) < 2 {
		return nil, fmt.Errorf("raid: need at least 2 devices, have %d", len(devs))
	}
	if chunk <= 0 || chunk%blockdev.PageSize != 0 {
		return nil, fmt.Errorf("raid: chunk %d must be a positive multiple of page size", chunk)
	}
	devCap := devs[0].Capacity()
	for i, d := range devs {
		if d.Capacity() != devCap {
			return nil, fmt.Errorf("raid: device %d capacity %d != %d", i, d.Capacity(), devCap)
		}
	}
	if devCap%chunk != 0 {
		return nil, fmt.Errorf("raid: device capacity %d not a multiple of chunk %d", devCap, chunk)
	}
	a := &Array{level: level, chunk: chunk, devs: devs, copies: 1}
	switch level {
	case Level0:
		a.dataDevs = len(devs)
	case Level1:
		if len(devs)%2 != 0 {
			return nil, fmt.Errorf("raid: %v needs an even device count, have %d", level, len(devs))
		}
		a.dataDevs = len(devs) / 2
		a.copies = 2
	case Level4, Level5:
		if len(devs) < 3 {
			return nil, fmt.Errorf("raid: %v needs at least 3 devices, have %d", level, len(devs))
		}
		a.dataDevs = len(devs) - 1
	default:
		return nil, fmt.Errorf("raid: unsupported level %v", level)
	}
	a.capacity = int64(a.dataDevs) * devCap
	a.cont = blockdev.NewContent(a.capacity)
	return a, nil
}

// Capacity reports the usable (logical) size in bytes.
func (a *Array) Capacity() int64 { return a.capacity }

// Stats reports logical traffic counters (caller-visible requests, not the
// amplified per-device traffic; device stats live on the children).
func (a *Array) Stats() *blockdev.Stats { return &a.stats }

// Content exposes the logical content store.
func (a *Array) Content() *blockdev.Content { return a.cont }

// Devices returns the member devices (for per-device stats).
func (a *Array) Devices() []blockdev.Device { return a.devs }

// parityDev reports which device holds the parity chunk of stripe s.
func (a *Array) parityDev(s int64) int {
	if a.level == Level4 {
		return len(a.devs) - 1
	}
	// Left-symmetric rotation for RAID-5.
	return len(a.devs) - 1 - int(s%int64(len(a.devs)))
}

// dataDev reports which device holds data position pos of stripe s. Under
// Level1 it is the first member of the pair; its mirror is the next one.
func (a *Array) dataDev(s int64, pos int) int {
	switch a.level {
	case Level0:
		return pos
	case Level1:
		return 2 * pos
	default:
		p := a.parityDev(s)
		if pos < p {
			return pos
		}
		return pos + 1
	}
}

// locate maps a logical chunk index to (stripe, data position).
func (a *Array) locate(lchunk int64) (stripe int64, pos int) {
	return lchunk / int64(a.dataDevs), int(lchunk % int64(a.dataDevs))
}
