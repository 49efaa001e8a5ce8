package memctrl

// Operational features from §VI of the paper: file-key rotation (counter
// reset under a new key), and moving an entire filesystem — the NVM module
// plus its sealed key material — to a new machine as a module image.

import (
	"fsencr/internal/addr"
	"fsencr/internal/aesctr"
	"fsencr/internal/config"
	"fsencr/internal/counters"
)

// RotateFileKey re-keys one page of a file: each line's old file OTP is
// stripped and a new one (under newKey, with reset counters) applied. With
// a fresh key there is no risk in resetting the filesystem encryption
// counters — old OTPs can never recur (§VI, "Resetting Filesystem
// Encryption Counters"). The caller rotates every page of the file, then
// installs the new key via InstallKey.
func (c *Controller) RotateFileKey(now config.Cycle, pa addr.Phys, group uint32, file uint16, oldKey, newKey aesctr.Key) config.Cycle {
	if !c.mode.FileEncryption {
		return now
	}
	c.noteCycle(now)
	c.n.keyRotations.Add(1)
	page := pa.PageNum()
	slot := fileSlot(page)
	fecb, ready := c.fetchCtr(now, slot)
	old := *fecb
	*fecb = counters.CB{GroupID: group, FileID: file}
	ready = c.swapPads(ready, page, aesctr.DomainFile, c.rd.engineFor(oldKey), &old, c.rd.engineFor(newKey), fecb)
	ready = c.touchDirtyCounter(ready, slot, fecb)
	c.persistCounterNow(ready, slot)
	// Data ECC tags are unchanged: rotation preserves plaintext.
	return ready
}

// Export packages the module for a move to a new machine (§VI, "Moving
// Entire Filesystem To New Machine"): the OTT is sealed into its region, as
// at shutdown, and the module is snapshotted as an Image. The image carries
// the chip sequence, so the processor's sealed material — the memory key,
// the OTT key and the Merkle root — travels with it. The source keeps
// working; the image is a copy (physically moving the DIMM, the source
// would lose the device — tests model that by discarding the source).
func (c *Controller) Export() (*Image, error) {
	c.FlushOTT()
	return c.ExportImage()
}

// Import adopts a moved filesystem into a freshly built controller: it
// takes over the source chip's keys, derived from img.ChipSeq (the hand-over
// an authenticated admin interaction performs in hardware), then installs
// the image with ImportImage, whose regenerated Merkle root must be the
// transported one before the controller serves any request. A rejected
// import leaves a controller that must not serve.
func (c *Controller) Import(img *Image) error {
	if c.mode.FileEncryption {
		c.adoptChip(img.ChipSeq)
	}
	return c.ImportImage(img)
}
