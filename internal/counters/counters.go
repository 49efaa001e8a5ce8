// Package counters implements the split-counter security metadata of the
// paper (§III-D and Figure 6). A counter block covers one 4 KB page and is
// exactly one 64-byte line — a major counter and 64 seven-bit minor counters
// — in one of two kinds:
//
//   - Mem (the paper's MECB, Memory Encryption Counter Block): a 64-bit major.
//   - File (the FECB, File Encryption Counter Block): an 18-bit Group ID, a
//     14-bit File ID and a 32-bit major.
//
// A data line's encryption counter is (major, minor[lineInPage]). Every
// write increments the line's minor counter; a minor overflow increments the
// major counter, resets all minors, and forces a re-encryption of the whole
// page (all 64 lines) because their OTPs all change.
package counters

import (
	"encoding/binary"
	"fmt"
	"math"

	"fsencr/internal/config"
)

// Kind says which of a page's two counter blocks a block is: its position
// in the pair ("a file encryption counter block follows each memory
// encryption counter block"). It is a property of where the block lives,
// never stored in the block, so everything that depends on it — the line
// layout, the width of the major — takes it as an argument.
type Kind uint8

const (
	Mem  Kind = 0
	File Kind = 1
)

// String names the kind as journal events do.
func (k Kind) String() string {
	if k == File {
		return "file"
	}
	return "mem"
}

// CB is a counter block. A file block is tagged with the owning file's
// identity so the memory controller can locate the file key in the Open
// Tunnel Table; a memory block's identity is always zero.
type CB struct {
	GroupID uint32                     // 18 bits
	FileID  uint16                     // 14 bits
	Major   uint64                     // a file block uses the low 32 bits
	Minor   [config.LinesPerPage]uint8 // 7-bit values
}

// Limits of the packed identity fields.
const (
	MaxGroupID = 1<<18 - 1
	MaxFileID  = 1<<14 - 1
)

// Block is a serialized 64-byte counter block as it lives in the metadata
// region of memory (and in the metadata cache).
type Block [config.LineSize]byte

// packMinors packs 64 7-bit minors into 56 bytes starting at b[off].
func packMinors(b []byte, minors *[config.LinesPerPage]uint8) {
	var acc uint64
	var nbits uint
	j := 0
	for i := 0; i < config.LinesPerPage; i++ {
		acc |= uint64(minors[i]&config.MinorCounterMax) << nbits
		nbits += config.MinorCounterBits
		for nbits >= 8 {
			b[j] = byte(acc)
			acc >>= 8
			nbits -= 8
			j++
		}
	}
	if nbits > 0 {
		b[j] = byte(acc)
	}
}

// unpackMinors reverses packMinors.
func unpackMinors(b []byte, minors *[config.LinesPerPage]uint8) {
	var acc uint64
	var nbits uint
	j := 0
	for i := 0; i < config.LinesPerPage; i++ {
		for nbits < config.MinorCounterBits {
			acc |= uint64(b[j]) << nbits
			nbits += 8
			j++
		}
		minors[i] = uint8(acc & config.MinorCounterMax)
		acc >>= config.MinorCounterBits
		nbits -= config.MinorCounterBits
	}
}

// Encode serializes the block into its 64-byte line. A memory block is 8
// bytes of major counter followed by 56 bytes of packed minors; a file
// block is 4 bytes packing the 18-bit Group ID and 14-bit File ID, 4 bytes
// of major counter, then the minors. A block its kind's line cannot hold —
// an oversize ID or file major, an identity on a memory block — is an
// error.
func (c *CB) Encode(k Kind) (b Block, err error) {
	err = c.EncodeInto(k, &b) // nothing is written on error
	return b, err
}

// EncodeInto serializes the block into a caller-owned line, so hot paths
// that re-encode a counter block on every NVM access (fetch, bump, tree
// update) can reuse one scratch buffer instead of escaping a fresh 64-byte
// copy to the heap each time.
func (c *CB) EncodeInto(k Kind, b *Block) error {
	if c.GroupID > MaxGroupID {
		return fmt.Errorf("counters: group ID %d exceeds 18 bits", c.GroupID)
	}
	if c.FileID > MaxFileID {
		return fmt.Errorf("counters: file ID %d exceeds 14 bits", c.FileID)
	}
	if k == Mem {
		if c.GroupID != 0 || c.FileID != 0 {
			return fmt.Errorf("counters: memory block tagged (%d, %d)", c.GroupID, c.FileID)
		}
		binary.LittleEndian.PutUint64(b[0:8], c.Major)
	} else {
		if c.Major > math.MaxUint32 {
			return fmt.Errorf("counters: file major %d exceeds 32 bits", c.Major)
		}
		binary.LittleEndian.PutUint32(b[0:4], c.GroupID|uint32(c.FileID)<<18)
		binary.LittleEndian.PutUint32(b[4:8], uint32(c.Major))
	}
	packMinors(b[8:], &c.Minor)
	return nil
}

// MustEncodeInto is EncodeInto for callers that have already validated the
// block.
func (c *CB) MustEncodeInto(k Kind, b *Block) {
	if err := c.EncodeInto(k, b); err != nil {
		panic(err)
	}
}

// MustEncode is Encode for callers that have already validated the block.
func (c *CB) MustEncode(k Kind) (b Block) {
	c.MustEncodeInto(k, &b)
	return b
}

// Decode parses a serialized block of kind k.
func Decode(k Kind, b Block) CB {
	var c CB
	if k == Mem {
		c.Major = binary.LittleEndian.Uint64(b[0:8])
	} else {
		tag := binary.LittleEndian.Uint32(b[0:4])
		c.GroupID = tag & MaxGroupID
		c.FileID = uint16(tag >> 18 & MaxFileID)
		c.Major = uint64(binary.LittleEndian.Uint32(b[4:8]))
	}
	unpackMinors(b[8:], &c.Minor)
	return c
}

// BumpResult describes the effect of incrementing a minor counter.
type BumpResult struct {
	// Overflowed reports that the minor counter wrapped; the caller must
	// re-encrypt the whole page under the new major counter.
	Overflowed bool
	// MajorWrapped reports that the major counter itself wrapped, which for
	// file counters means the file key must be rotated (§VI, "Resetting
	// Filesystem Encryption Counters").
	MajorWrapped bool
}

// Bump increments the minor counter for line (0..63), handling overflow. A
// file block's major wraps at 32 bits — the width its line stores.
func (c *CB) Bump(k Kind, line int) BumpResult {
	if c.Minor[line] < config.MinorCounterMax {
		c.Minor[line]++
		return BumpResult{}
	}
	c.Major++
	if k == File {
		c.Major &= math.MaxUint32
	}
	c.Minor = [config.LinesPerPage]uint8{}
	c.Minor[line] = 1
	return BumpResult{Overflowed: true, MajorWrapped: c.Major == 0}
}

// Reset zeroes the counters and the identity (Silent-Shredder-style secure
// deletion: with the counters gone, previous ciphertext can no longer be
// decrypted even with the correct key, because the OTPs cannot be
// regenerated).
func (c *CB) Reset() {
	*c = CB{}
}
