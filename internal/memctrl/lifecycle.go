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
	c.st.Inc("mc.key_rotations")
	page := pa.PageNum()
	fecb, ready := c.fetchFECB(now, page)
	old := *fecb
	*fecb = counters.FECB{GroupID: group, FileID: file}
	ready = c.swapPads(ready, page, aesctr.DomainFile,
		c.rd.engineFor(oldKey), uint64(old.Major), &old.Minor,
		c.rd.engineFor(newKey), uint64(fecb.Major), &fecb.Minor)
	ready = c.touchDirtyCounter(ready, fecbAddr(page), fecbLeaf(page), c.encFECB(fecb))
	c.persistCounterNow(ready, fecbAddr(page))
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
	mecb      map[uint64]*counters.MECB
	fecb      map[uint64]*counters.FECB
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
	// Flush all OTT entries into the sealed region, as at shutdown.
	for _, e := range c.ottTable.Entries() {
		bucket := c.ottRegion.Store(e)
		c.updateOTTLeaf(bucket)
	}
	mecb := make(map[uint64]*counters.MECB, len(c.mecb))
	for k, v := range c.mecb {
		vv := *v
		mecb[k] = &vv
	}
	fecb := make(map[uint64]*counters.FECB, len(c.fecb))
	for k, v := range c.fecb {
		vv := *v
		fecb[k] = &vv
	}
	return Transport{
		memEngine: c.rd.mem,
		root:      c.mt.Root(),
		device:    c.PCM,
		mecb:      mecb,
		fecb:      fecb,
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
	c.mecb = t.mecb
	c.fecb = t.fecb
	c.ecc = eccPages(t.ecc)
	c.ottRegion = t.region
	c.ottTable.Clear()
	for _, e := range t.entries {
		c.ottTable.Insert(e)
	}
	c.persistedMECB = make(map[uint64]counters.MECB, len(t.mecb))
	for k, v := range t.mecb {
		c.persistedMECB[k] = *v
	}
	c.persistedFECB = make(map[uint64]counters.FECB, len(t.fecb))
	for k, v := range t.fecb {
		c.persistedFECB[k] = *v
	}
	c.unpersisted = make(map[uint64]int)
	c.clearMetaCaches()
	c.rebuildTreeFromCounters()
	if c.mt.Root() != t.root {
		return ErrTransportRejected
	}
	c.st.Inc("mc.imports")
	return nil
}
