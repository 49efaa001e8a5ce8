package memctrl

import (
	"fsencr/internal/addr"
	"fsencr/internal/config"
	"fsencr/internal/counters"
)

// fetchMeta models bringing one metadata line (counter block or OTT bucket)
// into the metadata cache: on a hit the block is available after the
// metadata cache latency; on a miss the block is fetched from PCM, its leaf
// checked against the Bonsai Merkle tree, and the walk up to the first
// cached (trusted) node charged. Returns the time the block is usable.
func (c *Controller) fetchMeta(now config.Cycle, metaAddr uint64, leaf int, content []byte) config.Cycle {
	if c.metaHit(metaAddr) {
		return now + c.cfg.Security.MetadataCacheLatency
	}
	return c.fetchMetaMiss(now, metaAddr, leaf, content)
}

// metaHit is the one metadata-cache lookup of a fetch, counted either way.
func (c *Controller) metaHit(metaAddr uint64) bool {
	if c.mcacheFor(metaAddr).Lookup(metaAddr, false) {
		c.n.metaHits.Add(1)
		return true
	}
	c.n.metaMisses.Add(1)
	return false
}

// fetchMetaMiss is fetchMeta past a missed lookup: the PCM fetch, the
// Merkle verification of content (skipped when nil) and the cache fill.
func (c *Controller) fetchMetaMiss(now config.Cycle, metaAddr uint64, leaf int, content []byte) config.Cycle {
	ready := c.PCM.Access(now, addr.Phys(metaAddr), false)
	c.n.metaReads.Add(1)

	// Integrity verification: the host check is Verify's leaf compare, the
	// only node that came from memory. The walk up the tree until a node
	// already cached on-chip (trusted) terminates it is timing only: the
	// fetches and MACs a real controller pays for interior nodes.
	if content != nil {
		if !c.mt.Verify(leaf, content) {
			c.violations++
			c.n.integrityViolations.Add(1)
		}
		ready += c.cfg.Security.MACLatency
		walked := uint64(0)
		c.mtPath = c.mt.AppendPathNodes(c.mtPath[:0], leaf)
		for _, n := range c.mtPath {
			na := mtNodeAddr(n)
			if c.mcacheFor(na).Lookup(na, false) {
				c.n.mtHits.Add(1)
				break
			}
			c.n.mtMisses.Add(1)
			walked++
			ready = c.PCM.Access(ready, addr.Phys(na), false) + c.cfg.Security.MACLatency
			c.n.metaReads.Add(1)
			c.insertMeta(ready, na, false)
		}
		c.tBMTWalk.Observe(walked)
	}
	c.insertMeta(ready, metaAddr, false)
	c.tMetaFetch.Observe(uint64(ready - now))
	return ready
}

// insertMeta fills a metadata line into the metadata cache, writing back
// any dirty victim (which persists the victim's counter block).
func (c *Controller) insertMeta(now config.Cycle, metaAddr uint64, dirty bool) {
	victim, evicted := c.mcacheFor(metaAddr).Insert(metaAddr, dirty)
	if !evicted || !victim.Dirty {
		return
	}
	// Dirty metadata eviction: the block is written back to NVM. The write
	// happens in the background (it occupies a bank but nobody waits on it).
	c.PCM.Access(now, addr.Phys(victim.LineAddr), true)
	c.n.metaWritebacks.Add(1)
	if slot, ok := addrSlot(victim.LineAddr); ok { // MT nodes and OTT buckets are reconstructible
		c.persistCounter(slot)
	}
}

// persistCounter records that the counter block in slot now has its
// current value durable in NVM (used by crash recovery).
func (c *Controller) persistCounter(slot uint64) {
	if b, ok := c.ctr[slot]; ok {
		c.persisted[slot] = *b
	}
	delete(c.unpersisted, slot)
}

// getCtr returns the current counter block in slot, creating it on first
// touch.
func (c *Controller) getCtr(slot uint64) *counters.CB {
	b, ok := c.ctr[slot]
	if !ok {
		b = &counters.CB{}
		c.ctr[slot] = b
		// A fresh block's zero value is implicitly durable.
		c.persisted[slot] = *b
		c.mt.Update(int(slot), c.enc(slot, b))
	}
	return b
}

// peekCtr returns a copy of slot's block without creating it: an absent
// block reads as the fresh zero block getCtr would create.
func (c *Controller) peekCtr(slot uint64) counters.CB {
	if b, ok := c.ctr[slot]; ok {
		return *b
	}
	return counters.CB{}
}

// enc serializes slot's block b, under the slot's kind, into the
// controller's scratch line. The returned slice is valid until the next enc
// call; every consumer (leaf hash, MAC verify) reads it synchronously.
func (c *Controller) enc(slot uint64, b *counters.CB) []byte {
	b.MustEncodeInto(slotKind(slot), &c.encScratch)
	return c.encScratch[:]
}

// fetchCtr makes slot's counter block available to the datapath and returns
// when. It is fetchMeta with the content encoded only once the lookup has
// missed: a hit never reads it, and packing 64 minors costs more host time
// than everything else a hit does.
func (c *Controller) fetchCtr(now config.Cycle, slot uint64) (*counters.CB, config.Cycle) {
	b, metaAddr := c.getCtr(slot), slotAddr(slot)
	if c.metaHit(metaAddr) {
		return b, now + c.cfg.Security.MetadataCacheLatency
	}
	return b, c.fetchMetaMiss(now, metaAddr, int(slot), c.enc(slot, b))
}

// touchDirtyCounter accounts one update of a counter block outside the data
// path (identity tagging, shredding, key rotation) and enforces the Osiris
// stop-loss bound: after StopLoss unpersisted bumps the block is written
// through to NVM so crash recovery only ever needs to search a bounded
// counter window. bumpLines is the data path's n-bump form.
func (c *Controller) touchDirtyCounter(now config.Cycle, slot uint64, b *counters.CB) config.Cycle {
	u, persists := c.unpersisted[slot]+1, 0
	if u >= c.cfg.Security.StopLoss {
		c.persistCounter(slot)
		u, persists = 0, 1
	} else {
		c.unpersisted[slot] = u
	}
	return c.counterDirtied(now, now, slot, b, persists, u == 0)
}

// counterDirtied is the tail every counter-block update shares: slot's
// block b goes dirty in the metadata cache, its Merkle leaf and path are
// updated to its new encoding, and the stop-loss write-throughs the
// update triggered are issued at writeThroughAt (background writes; bank
// time accounted). durable reports that the last bump was one of them, so
// the cached copy matches NVM again. Returns when the MT MAC update is done.
func (c *Controller) counterDirtied(now, writeThroughAt config.Cycle, slot uint64, b *counters.CB, persists int, durable bool) config.Cycle {
	metaAddr, leaf := slotAddr(slot), int(slot)
	c.mcacheFor(metaAddr).Lookup(metaAddr, true) // mark dirty (present: just fetched)
	c.insertMeta(now, metaAddr, true)
	c.mt.Update(leaf, c.enc(slot, b))
	// Merkle path nodes become dirty in the metadata cache as well.
	c.mtPath = c.mt.AppendPathNodes(c.mtPath[:0], leaf)
	for _, n := range c.mtPath {
		c.insertMeta(now, mtNodeAddr(n), true)
	}
	if persists > 0 {
		c.PCM.AccessRepeat(writeThroughAt, addr.Phys(metaAddr), true, persists)
		c.n.stoplossPersists.Add(uint64(persists))
	}
	if durable {
		c.mcacheFor(metaAddr).Clean(metaAddr)
	}
	return now + c.cfg.Security.MACLatency
}

// persistCounterNow writes slot's counter block through to NVM immediately
// (background bank occupancy, no caller stall) and records it durable.
func (c *Controller) persistCounterNow(now config.Cycle, slot uint64) {
	metaAddr := slotAddr(slot)
	c.PCM.Access(now, addr.Phys(metaAddr), true)
	c.mcacheFor(metaAddr).Clean(metaAddr)
	c.persistCounter(slot)
}

// merkle helpers used by recovery. Unlike the datapath's scratch encoders,
// the leaves map retains every slice until Rebuild consumes it, so each
// block gets its own freshly allocated encoding here.
func (c *Controller) rebuildTreeFromCounters() {
	leaves := make(map[int][]byte, len(c.ctr)+c.ottRegionLeafCount())
	for slot, b := range c.ctr {
		line := b.MustEncode(slotKind(slot))
		leaves[int(slot)] = line[:]
	}
	c.addOTTLeaves(leaves)
	c.mt.Rebuild(leaves)
}

func (c *Controller) ottRegionLeafCount() int {
	if c.ottRegion == nil {
		return 0
	}
	return c.ottRegion.Len()
}

// addOTTLeaves folds the sealed OTT region contents into the Merkle leaf
// set so the tree also protects the encrypted OTT region (§VI).
func (c *Controller) addOTTLeaves(leaves map[int][]byte) {
	if c.ottRegion == nil {
		return
	}
	for b := 0; b < c.ottRegion.Buckets(); b++ {
		content := c.ottBucketContent(b)
		if content != nil {
			leaves[ottLeaf(b)] = content
		}
	}
}

// ottBucketContent serializes a bucket's sealed records for MAC purposes.
func (c *Controller) ottBucketContent(bucket int) []byte {
	recs := c.ottRegion.BucketRecords(bucket)
	if len(recs) == 0 {
		return nil
	}
	out := make([]byte, 0, len(recs)*len(recs[0]))
	for _, r := range recs {
		out = append(out, r[:]...)
	}
	return out
}
