package memctrl

import (
	"fsencr/internal/addr"
	"fsencr/internal/aesctr"
	"fsencr/internal/audit"
	"fsencr/internal/config"
	"fsencr/internal/ott"
)

// lookupKey resolves the file key for (group, file), first in the on-chip
// OTT (20-cycle parallel search) and then in the encrypted OTT region in
// memory (hashed bucket fetch + unseal with the OTT key). A region hit
// refills the OTT. Returns the key, the time it is available, and whether
// it was found at all.
func (c *Controller) lookupKey(now config.Cycle, group uint32, file uint16) (aesctr.Key, config.Cycle, bool) {
	ready := now + c.cfg.Security.OTTLookupLatency
	if key, ok := c.ottTable.Lookup(group, file); ok {
		c.n.ottHits.Add(1)
		c.tKeyLookup.Observe(uint64(ready - now))
		return key, ready, true
	}
	c.n.ottMisses.Add(1)
	entry, bucket, found := c.ottRegion.Lookup(group, file)
	// The bucket fetch goes through the metadata cache like other
	// controller-owned metadata.
	ready = c.fetchMeta(ready, ottBucketAddr(bucket), ottLeaf(bucket), c.ottBucketContent(bucket))
	// Unsealing costs two AES block traversals plus the hashed-index math.
	ready += 2*c.cfg.Security.AESLatency + c.cfg.Security.OTTRegionLatencyExtra
	c.span("ott", "region_probe", uint64(now), uint64(ready))
	c.tKeyLookup.Observe(uint64(ready - now))
	if !found {
		return aesctr.Key{}, ready, false
	}
	c.installOTT(ready, entry, true)
	return entry.Key, ready, true
}

// installOTT inserts an entry into the on-chip OTT, sealing any evicted
// victim into the encrypted OTT region. refill marks an entry restored
// from the region (journalled as ott_refill) as opposed to a fresh tunnel
// open.
func (c *Controller) installOTT(now config.Cycle, e ott.Entry, refill bool) {
	c.noteCycle(now)
	var victim ott.Entry
	var evicted bool
	if refill {
		victim, evicted = c.ottTable.Refill(e)
	} else {
		victim, evicted = c.ottTable.Insert(e)
	}
	if !evicted {
		return
	}
	c.n.ottEvictions.Add(1)
	bucket := c.ottRegion.Store(victim)
	// Background write of the sealed record + Merkle update over the
	// region (§VI: the Merkle tree also covers the encrypted OTT region).
	c.PCM.Access(now, addr.Phys(ottBucketAddr(bucket)), true)
	c.n.metaWritebacks.Add(1)
	c.updateOTTLeaf(bucket)
}

func (c *Controller) updateOTTLeaf(bucket int) {
	content := c.ottBucketContent(bucket)
	if content == nil {
		// An emptied bucket must hash exactly like an untouched one, or a
		// post-crash tree rebuild (which skips empty buckets) would
		// produce a different root.
		content = make([]byte, config.LineSize)
	}
	c.mt.Update(ottLeaf(bucket), content)
}

// InstallKey is the MMIO operation the kernel performs at file creation
// (§III-F1): it hands (GroupID, FileID, file key) to the controller, which
// stores it in the OTT. Following §III-H (crash consistency, option 1),
// the new entry is also logged immediately to the sealed OTT region — key
// installs happen only at file creation, so the write-through is
// insignificant, and it makes file keys durable across crashes even
// without backup power. Returns the completion time.
func (c *Controller) InstallKey(now config.Cycle, group uint32, file uint16, key aesctr.Key) config.Cycle {
	if !c.mode.FileEncryption {
		return now
	}
	c.noteCycle(now)
	c.n.keyInstalls.Add(1)
	c.aud.Append(uint64(now), audit.OpKeyInstall, 0, group, file)
	e := ott.Entry{Group: group, File: file, Key: key}
	c.installOTT(now, e, false)
	bucket := c.ottRegion.Store(e)
	c.PCM.Access(now, addr.Phys(ottBucketAddr(bucket)), true)
	c.updateOTTLeaf(bucket)
	return now + c.cfg.Security.OTTLookupLatency
}

// RemoveKey is the MMIO operation performed at file deletion: the key is
// removed from both the OTT and the encrypted OTT region.
func (c *Controller) RemoveKey(now config.Cycle, group uint32, file uint16) config.Cycle {
	if !c.mode.FileEncryption {
		return now
	}
	c.noteCycle(now)
	c.n.keyRemovals.Add(1)
	c.aud.Append(uint64(now), audit.OpKeyRemove, 0, group, file)
	c.ottTable.Remove(group, file)
	if bucket, removed := c.ottRegion.Remove(group, file); removed {
		c.PCM.Access(now, addr.Phys(ottBucketAddr(bucket)), true)
		c.updateOTTLeaf(bucket)
	}
	return now + c.cfg.Security.OTTLookupLatency
}

// VerifyKey checks whether the key derived from a user's passphrase matches
// what was stored in the OTT for (group, file). The kernel uses this to
// deny opens with a wrong passphrase even when permission bits would allow
// access (§VI, "Protecting Files from Accidental Permission Changes").
func (c *Controller) VerifyKey(group uint32, file uint16, key aesctr.Key) bool {
	if !c.mode.FileEncryption {
		return true
	}
	if k, ok := c.ottTable.Lookup(group, file); ok {
		return k == key
	}
	if e, _, ok := c.ottRegion.Lookup(group, file); ok {
		return e.Key == key
	}
	return false
}

// TagPage is the MMIO operation performed during a DAX page fault
// (§III-F1): the kernel sends the file's inode number and group ID, and the
// controller records them in the page's FECB (updating the cached copy and
// flagging it dirty if present). Returns the completion time.
func (c *Controller) TagPage(now config.Cycle, pa addr.Phys, group uint32, file uint16) config.Cycle {
	if !c.fileActive() {
		return now
	}
	c.noteCycle(now)
	c.n.pageTags.Add(1)
	page := pa.PageNum()
	c.aud.Append(uint64(now), audit.OpMap, page, group, file)
	slot := fileSlot(page)
	fecb, ready := c.fetchCtr(now, slot)
	if fecb.GroupID == group && fecb.FileID == file {
		return ready
	}
	fecb.GroupID = group
	fecb.FileID = file
	ready = c.touchDirtyCounter(ready, slot, fecb)
	// Identity tagging is rare (page faults only); persist it immediately
	// so recovery never has to guess file identities.
	c.persistCounterNow(ready, slot)
	return ready
}

// ShredPage implements Silent-Shredder-style secure deletion (§VI): the
// page's file encryption counters are reset and its identity cleared, so
// the old ciphertext can never be decrypted again — even by a process that
// still holds the correct file key — without writing the page even once.
func (c *Controller) ShredPage(now config.Cycle, pa addr.Phys) config.Cycle {
	if !c.mode.FileEncryption {
		return now
	}
	c.noteCycle(now)
	c.n.pageShreds.Add(1)
	page := pa.PageNum()
	slot := fileSlot(page)
	fecb, ready := c.fetchCtr(now, slot)
	c.aud.Append(uint64(now), audit.OpShred, page, fecb.GroupID, fecb.FileID)
	fecb.Reset()
	ready = c.touchDirtyCounter(ready, slot, fecb)
	c.persistCounterNow(ready, slot)
	// The page's data is dead: its ECC tags no longer correspond to any
	// recoverable plaintext, so they are dropped — which also means the
	// page's memory counters can no longer be reconstructed from data.
	// Persist the MECB now (shredding is rare) so recovery never needs to.
	c.persistCounterNow(ready, memSlot(page))
	delete(c.ecc, page)
	return ready
}
