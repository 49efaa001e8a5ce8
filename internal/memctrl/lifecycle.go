package memctrl

// Operational features from §VI of the paper: file-key rotation (counter
// reset under a new key), and transporting an entire filesystem — the NVM
// module plus its sealed key material — to a new machine.

import (
	"errors"

	"fsencr/internal/addr"
	"fsencr/internal/aesctr"
	"fsencr/internal/config"
	"fsencr/internal/counters"
	"fsencr/internal/merkle"
	"fsencr/internal/ott"
	"fsencr/internal/pcm"
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

// Transport is the sealed bundle that accompanies an NVM module moved to a
// new machine (§VI, "Moving Entire Filesystem To New Machine"): the memory
// encryption key, the OTT key, and the integrity-tree root, transferred
// through an authenticated admin interaction. In hardware this would be
// wrapped for the destination processor; here it is an opaque value the
// test passes between controllers.
type Transport struct {
	memEngine *aesctr.Engine
	root      merkle.Hash
	device    *pcm.Memory
	ctr       map[uint64]*counters.CB
	ecc       map[uint64]uint64
	entries   []ott.Entry
	region    *ott.Region
}

// Export flushes the OTT into the encrypted region and packages the module
// + keys for transport. The source controller keeps working; the export is
// a snapshot handoff (as when physically moving the DIMM, the source loses
// the device — tests model that by discarding the source).
func (c *Controller) Export() (Transport, error) {
	if !c.mode.FileEncryption {
		return Transport{}, errors.New("memctrl: export requires the FsEncr datapath")
	}
	c.FlushOTT() // as at shutdown
	ctr := make(map[uint64]*counters.CB, len(c.ctr))
	for slot, b := range c.ctr {
		bb := *b
		ctr[slot] = &bb
	}
	return Transport{
		memEngine: c.rd.mem,
		root:      c.mt.Root(),
		device:    c.PCM,
		ctr:       ctr,
		ecc:       eccLines(c.ecc),
		entries:   c.ottTable.Entries(),
		region:    c.ottRegion,
	}, nil
}

// ErrTransportRejected reports a failed authentication between the moved
// module and the destination processor.
var ErrTransportRejected = errors.New("memctrl: transport authentication failed")

// Import adopts a transported filesystem: the destination controller takes
// over the device, keys, counters and integrity root, then regenerates and
// verifies the Merkle tree against the transported root before serving any
// request.
func (c *Controller) Import(t Transport) error {
	if !c.mode.FileEncryption {
		return errors.New("memctrl: import requires the FsEncr datapath")
	}
	if t.device == nil || t.memEngine == nil {
		return ErrTransportRejected
	}
	c.PCM = t.device
	c.rd.mem = t.memEngine
	c.ottRegion = t.region
	if !c.install(t.ctr, t.ecc, t.entries, t.root) {
		return ErrTransportRejected
	}
	return nil
}

// install is the tail Import and ImportImage share, run once the device and
// the sealed OTT region are in place: the counter blocks are adopted (the
// controller takes ownership of ctr) with every one treated as durable, the
// ECC tags and on-chip OTT entries installed, and the Merkle tree
// regenerated. It reports whether the tree's root is the transported one;
// the controller must not serve anything otherwise.
func (c *Controller) install(ctr map[uint64]*counters.CB, ecc map[uint64]uint64, entries []ott.Entry, root merkle.Hash) bool {
	c.ctr = ctr
	c.persisted = make(map[uint64]counters.CB, len(ctr))
	for slot, b := range ctr {
		c.persisted[slot] = *b
	}
	c.ecc = eccPages(ecc)
	c.ottTable.Clear()
	for _, e := range entries {
		c.ottTable.Insert(e)
	}
	c.unpersisted = make(map[uint64]int)
	c.clearMetaCaches()
	c.rebuildTreeFromCounters()
	if c.mt.Root() != root {
		return false
	}
	c.n.imports.Add(1)
	return true
}
