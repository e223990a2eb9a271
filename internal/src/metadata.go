package src

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
)

// On-SSD metadata (paper §4.1, "Metadata management"): each segment column
// carries a summary block at its start (MS) and end (ME). The summary
// extends the LFS summary structure with a signature, generation number and
// checksum of itself, plus per-page LBA, version and dirty flag. Matching
// MS/ME generations prove the segment was written completely; the recovery
// scan rebuilds the mapping table from them.

// Serialized magics.
const (
	summaryMagic    uint32 = 0x5352434d // "SRCM"
	superblockMagic uint32 = 0x53524353 // "SRCS"
)

// Summary kinds.
const (
	kindMS uint8 = 1
	kindME uint8 = 2
)

// Errors from metadata parsing.
var (
	// ErrBadSummary reports a summary block that fails validation.
	ErrBadSummary = errors.New("src: invalid segment summary")
	// ErrBadSuperblock reports a superblock that fails validation.
	ErrBadSuperblock = errors.New("src: invalid superblock")
)

// summaryEntry describes one payload page of a column. Entries are
// positional: entry i describes payload page i+1 of the column, so a
// summary written for a column whose earlier slots have been invalidated
// must hold the position with a summaryFreeLBA entry rather than compact
// the list.
type summaryEntry struct {
	lba     int64
	version uint64
	dirty   bool
}

// summaryFreeLBA marks a payload slot with no live page in a rebuilt
// summary; recovery skips it without disturbing the positions of the
// entries that follow.
const summaryFreeLBA = -1

// summary is the per-column segment summary.
type summary struct {
	kind      uint8
	gen       int64
	sg, seg   int64
	col       uint8
	parityCol int8
	entries   []summaryEntry
}

// marshal serializes the summary with a trailing CRC-32.
func (s *summary) marshal() []byte {
	buf := make([]byte, 0, 40+len(s.entries)*18)
	var tmp [8]byte
	put32 := func(v uint32) {
		binary.LittleEndian.PutUint32(tmp[:4], v)
		buf = append(buf, tmp[:4]...)
	}
	put64 := func(v uint64) {
		binary.LittleEndian.PutUint64(tmp[:8], v)
		buf = append(buf, tmp[:8]...)
	}
	put32(summaryMagic)
	buf = append(buf, s.kind, s.col, uint8(s.parityCol))
	put64(uint64(s.gen))
	put64(uint64(s.sg))
	put64(uint64(s.seg))
	put32(uint32(len(s.entries)))
	for _, e := range s.entries {
		put64(uint64(e.lba))
		put64(e.version)
		flag := uint8(0)
		if e.dirty {
			flag = 1
		}
		buf = append(buf, flag)
	}
	put32(crc32.ChecksumIEEE(buf))
	return buf
}

// parseSummary validates and decodes a summary blob written for a volume
// of pages pages. The superblock does not record the primary's size, so a
// summary naming a page beyond it, CRC-valid but written for a larger
// volume, is rejected too.
func parseSummary(b []byte, pages int64) (*summary, error) {
	if len(b) < 39 {
		return nil, fmt.Errorf("%w: %d bytes", ErrBadSummary, len(b))
	}
	body, crc := b[:len(b)-4], binary.LittleEndian.Uint32(b[len(b)-4:])
	if crc32.ChecksumIEEE(body) != crc {
		return nil, fmt.Errorf("%w: checksum mismatch", ErrBadSummary)
	}
	if binary.LittleEndian.Uint32(body[:4]) != summaryMagic {
		return nil, fmt.Errorf("%w: bad magic", ErrBadSummary)
	}
	s := &summary{
		kind:      body[4],
		col:       body[5],
		parityCol: int8(body[6]),
		gen:       int64(binary.LittleEndian.Uint64(body[7:])),
		sg:        int64(binary.LittleEndian.Uint64(body[15:])),
		seg:       int64(binary.LittleEndian.Uint64(body[23:])),
	}
	if s.kind != kindMS && s.kind != kindME {
		return nil, fmt.Errorf("%w: kind %d", ErrBadSummary, s.kind)
	}
	count := int(binary.LittleEndian.Uint32(body[31:]))
	rest := body[35:]
	if len(rest) != count*17 {
		return nil, fmt.Errorf("%w: %d entries in %d bytes", ErrBadSummary, count, len(rest))
	}
	s.entries = make([]summaryEntry, count)
	for i := range s.entries {
		off := i * 17
		s.entries[i] = summaryEntry{
			lba:     int64(binary.LittleEndian.Uint64(rest[off:])),
			version: binary.LittleEndian.Uint64(rest[off+8:]),
			dirty:   rest[off+16] == 1,
		}
		if lba := s.entries[i].lba; lba != summaryFreeLBA && uint64(lba) >= uint64(pages) {
			return nil, fmt.Errorf("%w: page %d beyond a volume of %d", ErrBadSummary, lba, pages)
		}
	}
	return s, nil
}

// superblock describes the cache instance; it lives in Segment Group 0 and
// is written once (paper: "the very first SG is used to hold the
// superblock ... never modified").
type superblock struct {
	ssds           uint32
	eraseGroupSize int64
	segmentColumn  int64
	numSG          int64
}

func (sb *superblock) marshal() []byte {
	buf := make([]byte, 40)
	binary.LittleEndian.PutUint32(buf[0:], superblockMagic)
	binary.LittleEndian.PutUint32(buf[4:], sb.ssds)
	binary.LittleEndian.PutUint64(buf[8:], uint64(sb.eraseGroupSize))
	binary.LittleEndian.PutUint64(buf[16:], uint64(sb.segmentColumn))
	binary.LittleEndian.PutUint64(buf[24:], uint64(sb.numSG))
	binary.LittleEndian.PutUint32(buf[36:], crc32.ChecksumIEEE(buf[:36]))
	return buf
}

func parseSuperblock(b []byte) (*superblock, error) {
	if len(b) != 40 {
		return nil, fmt.Errorf("%w: %d bytes", ErrBadSuperblock, len(b))
	}
	if crc32.ChecksumIEEE(b[:36]) != binary.LittleEndian.Uint32(b[36:]) {
		return nil, fmt.Errorf("%w: checksum mismatch", ErrBadSuperblock)
	}
	if binary.LittleEndian.Uint32(b[0:]) != superblockMagic {
		return nil, fmt.Errorf("%w: bad magic", ErrBadSuperblock)
	}
	return &superblock{
		ssds:           binary.LittleEndian.Uint32(b[4:]),
		eraseGroupSize: int64(binary.LittleEndian.Uint64(b[8:])),
		segmentColumn:  int64(binary.LittleEndian.Uint64(b[16:])),
		numSG:          int64(binary.LittleEndian.Uint64(b[24:])),
	}, nil
}
