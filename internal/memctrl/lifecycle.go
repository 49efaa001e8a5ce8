package memctrl

// Operational features from §VI of the paper: file-key rotation (counter
// reset under a new key) here, and moving an entire filesystem — the NVM
// module plus its sealed key material — to a new machine as a module image
// (ExportImage/ImportImage, image.go).

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
	ready = c.swapPads(ready, page, aesctr.DomainFile, c.rd.engineFor(oldKey), &old, c.rd.engineFor(newKey), fecb, 0, 0)
	ready = c.touchDirtyCounter(ready, slot, fecb)
	c.persistCounterNow(ready, slot)
	// Data ECC tags are unchanged: rotation preserves plaintext.
	return ready
}
