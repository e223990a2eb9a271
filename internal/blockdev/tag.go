package blockdev

import "fmt"

// Tag is a 16-byte stand-in for the content of one 4 KB page. The simulation
// stores tags instead of payload bytes: a tag identifies the logical block
// and version a page holds plus a checksum of the (synthetic) content, which
// is enough to verify mappings, detect silent corruption, and — because tags
// XOR component-wise — to compute and verify RAID parity reconstruction.
type Tag struct {
	Hi uint64
	Lo uint64
}

// ZeroTag is the content of a never-written or trimmed page.
var ZeroTag = Tag{}

// IsZero reports whether the tag is the erased/never-written value.
func (t Tag) IsZero() bool { return t == ZeroTag }

// XOR combines two tags field-wise, mirroring byte-wise XOR of page
// contents. XOR of data tags yields the parity tag; XOR-ing the parity with
// all surviving data tags reconstructs a lost tag.
func (t Tag) XOR(o Tag) Tag { return Tag{Hi: t.Hi ^ o.Hi, Lo: t.Lo ^ o.Lo} }

// String renders the tag compactly for test failures.
func (t Tag) String() string { return fmt.Sprintf("tag(%016x%016x)", t.Hi, t.Lo) }

// mix64 is SplitMix64's finalizer; it gives tags checksum-quality diffusion
// so that distinct (lba, version) pairs virtually never collide.
func mix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// DataTag deterministically derives the content tag for version v of logical
// block lba. The same (lba, version) always produces the same tag, which is
// how tests and the recovery path verify that a read returned the content
// that was written.
func DataTag(lba int64, version uint64) Tag {
	return Tag{
		Hi: mix64(uint64(lba)*0x100000001b3 + version),
		Lo: mix64(version*0x9e3779b97f4a7c15 ^ uint64(lba)),
	}
}
