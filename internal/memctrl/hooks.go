package memctrl

// Attack/test hooks. These model an attacker with physical access to the
// NVM DIMM: reading raw ciphertext, and tampering with metadata behind the
// controller's back. They exist so the security properties claimed in the
// paper (Table I, §VI) are demonstrable, not just asserted.

import (
	"fsencr/internal/addr"
	"fsencr/internal/aesctr"
	"fsencr/internal/config"
	"fsencr/internal/counters"
)

// RawLine returns the ciphertext bytes an attacker scanning the physical
// DIMM would see for the line containing pa.
func (c *Controller) RawLine(pa addr.Phys) aesctr.Line {
	return c.PCM.ReadLine(pa.LineAlign().Raw())
}

// DecryptWithMemoryKeyOnly models an attacker (or an alien OS boot) that
// has compromised the general memory-encryption key but not the file keys:
// it strips the memory OTP from the stored ciphertext. For non-file lines
// the result is the plaintext; for DAX-file lines it is still wrapped in
// the file OTP.
func (c *Controller) DecryptWithMemoryKeyOnly(pa addr.Phys) aesctr.Line {
	la := pa.LineAlign()
	cipher := c.PCM.ReadLine(la.Raw())
	if !c.mode.MemEncryption {
		return cipher
	}
	page := la.PageNum()
	li := la.LineInPage()
	aesctr.XORBytes(cipher[:], c.rd.pads(page, li, 1, c.getCtr(memSlot(page)), nil, aesctr.Key{}))
	return cipher
}

// minor0LSB is the stored position of minor counter 0's low bit, after the
// 8-byte major/identity word in either kind: the bit to hand
// FlipMECBBit/FlipFECBBit for the smallest counter tamper.
const minor0LSB = 8 * 8

// evictMeta drops a metadata line from the metadata cache so the next
// access re-fetches (and re-verifies) it from memory.
func (c *Controller) evictMeta(metaAddr uint64) {
	if c.metaCache != nil {
		c.mcacheFor(metaAddr).Invalidate(metaAddr)
	}
}

// FlipMECBBit flips one of the 512 stored bits of a page's encoded memory
// counter block behind the Merkle tree's back, as a physical attacker
// rewriting the metadata region would. The encoding is bijective, so
// re-encoding on the next fetch reproduces the tampered bytes and Verify
// must fail. Self-inverse: flipping the same bit again restores the block.
func (c *Controller) FlipMECBBit(page uint64, bit int) { c.flipCtrBit(memSlot(page), bit) }

// FlipFECBBit is FlipMECBBit for the file counter block.
func (c *Controller) FlipFECBBit(page uint64, bit int) { c.flipCtrBit(fileSlot(page), bit) }

func (c *Controller) flipCtrBit(slot uint64, bit int) {
	b, kind := c.getCtr(slot), slotKind(slot)
	var line counters.Block
	b.MustEncodeInto(kind, &line)
	bit %= len(line) * 8
	line[bit/8] ^= 1 << (bit % 8)
	*b = counters.Decode(kind, line)
	// Deliberately no mt.Update: that is the attack.
	c.evictMeta(slotAddr(slot))
}

// FlipDataBit flips one bit of the stored ciphertext of the line
// containing pa, as bit rot or a physical attacker would. The next
// decrypting read must flag the line via its ECC check tag. Self-inverse.
func (c *Controller) FlipDataBit(pa addr.Phys, bit int) {
	raw := pa.LineAlign().Raw()
	line := c.PCM.ReadLine(raw)
	bit %= config.LineSize * 8
	line[bit/8] ^= 1 << (bit % 8)
	c.PCM.WriteLine(raw, line)
}

// TearLine models a torn NVM write: the first half of the stored line is
// replaced (bitwise inverted) while the second half keeps the old
// contents — the state a crash mid-line-program leaves behind. Detected
// like any multi-bit corruption by the ECC check tag. Self-inverse.
func (c *Controller) TearLine(pa addr.Phys) {
	raw := pa.LineAlign().Raw()
	line := c.PCM.ReadLine(raw)
	for i := 0; i < config.LineSize/2; i++ {
		line[i] ^= 0xFF
	}
	c.PCM.WriteLine(raw, line)
}

// TamperOTTRecord flips one bit of the first sealed record in the OTT
// region bucket holding (group, file), evicts the on-chip OTT entry and
// the bucket's metadata-cache line, so the next key lookup must probe the
// tampered region through the Merkle-verified fetch path. Returns false
// if no sealed record exists for the bucket. Call again with the same
// arguments to restore the record.
func (c *Controller) TamperOTTRecord(group uint32, file uint16, bit int) bool {
	if c.ottRegion == nil {
		return false
	}
	bucket := c.ottRegion.Bucket(group, file)
	if !c.ottRegion.FlipBit(bucket, 0, bit) {
		return false
	}
	c.ottTable.Remove(group, file)
	c.evictMeta(ottBucketAddr(bucket))
	return true
}

// CountersForPage returns copies of the page's current counter blocks (for
// white-box tests).
func (c *Controller) CountersForPage(page uint64) (mecbMajor uint64, mecbMinor [config.LinesPerPage]uint8, fecbGroup uint32, fecbFile uint16) {
	m, f := c.peekCtr(memSlot(page)), c.peekCtr(fileSlot(page))
	return m.Major, m.Minor, f.GroupID, f.FileID
}
