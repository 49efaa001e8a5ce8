package memctrl

import (
	"fsencr/internal/addr"
	"fsencr/internal/config"
	"fsencr/internal/counters"
)

// fetchMeta models bringing one metadata line (counter block or OTT bucket)
// into the metadata cache: on a hit the block is available after the
// metadata cache latency; on a miss the block is fetched from PCM and its
// integrity verified through the Bonsai Merkle tree, walking up until a
// cached (trusted) node is found. Returns the time the block is usable.
func (c *Controller) fetchMeta(now config.Cycle, metaAddr uint64, leaf int, content []byte) config.Cycle {
	if c.mcacheFor(metaAddr).Lookup(metaAddr, false) {
		c.st.Inc("mc.meta_hits")
		return now + c.cfg.Security.MetadataCacheLatency
	}
	c.st.Inc("mc.meta_misses")
	ready := c.PCM.Access(now, addr.Phys(metaAddr), false)
	c.st.Inc("mc.meta_reads")

	// Integrity verification: recompute the leaf MAC and walk up the tree
	// until a node already cached on-chip (trusted) terminates the walk.
	if content != nil {
		if !c.mt.Verify(leaf, content) {
			c.violations++
			c.st.Inc("mc.integrity_violations")
		}
		ready += c.cfg.Security.MACLatency
		walked := uint64(0)
		c.mtPath = c.mt.AppendPathNodes(c.mtPath[:0], leaf)
		for _, n := range c.mtPath {
			na := mtNodeAddr(n)
			if c.mcacheFor(na).Lookup(na, false) {
				c.st.Inc("mc.mt_hits")
				break
			}
			c.st.Inc("mc.mt_misses")
			walked++
			ready = c.PCM.Access(ready, addr.Phys(na), false) + c.cfg.Security.MACLatency
			c.st.Inc("mc.meta_reads")
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
	c.st.Inc("mc.meta_writebacks")
	c.persistCounterAt(victim.LineAddr)
}

// persistCounterAt records that the counter block at metaAddr now has its
// current value durable in NVM (used by crash recovery).
func (c *Controller) persistCounterAt(metaAddr uint64) {
	if metaAddr < MetaBase || metaAddr >= MTBase {
		return // MT nodes and OTT buckets are reconstructible
	}
	idx := (metaAddr - MetaBase) / config.LineSize
	page := idx / 2
	if idx%2 == 0 {
		if m, ok := c.mecb[page]; ok {
			c.persistedMECB[page] = *m
		}
	} else {
		if f, ok := c.fecb[page]; ok {
			c.persistedFECB[page] = *f
		}
	}
	delete(c.unpersisted, metaAddr)
}

// getMECB returns the current MECB for page, creating it on first touch.
func (c *Controller) getMECB(page uint64) *counters.MECB {
	m, ok := c.mecb[page]
	if !ok {
		m = &counters.MECB{}
		c.mecb[page] = m
		// A fresh block's zero value is implicitly durable.
		c.persistedMECB[page] = *m
		c.mt.Update(mecbLeaf(page), c.encMECB(m))
	}
	return m
}

// getFECB returns the current FECB for page, creating it on first touch.
func (c *Controller) getFECB(page uint64) *counters.FECB {
	f, ok := c.fecb[page]
	if !ok {
		f = &counters.FECB{}
		c.fecb[page] = f
		c.persistedFECB[page] = *f
		c.mt.Update(fecbLeaf(page), c.encFECB(f))
	}
	return f
}

// encMECB serializes a MECB into the controller's scratch line. The
// returned slice is valid until the next enc call; every consumer (leaf
// hash, MAC verify) reads it synchronously.
func (c *Controller) encMECB(m *counters.MECB) []byte {
	m.EncodeInto(&c.encScratch)
	return c.encScratch[:]
}

// encFECB is encMECB for file counter blocks.
func (c *Controller) encFECB(f *counters.FECB) []byte {
	f.MustEncodeInto(&c.encScratch)
	return c.encScratch[:]
}

// fetchMECB makes page's MECB available to the datapath and returns when.
func (c *Controller) fetchMECB(now config.Cycle, page uint64) (*counters.MECB, config.Cycle) {
	m := c.getMECB(page)
	ready := c.fetchMeta(now, mecbAddr(page), mecbLeaf(page), c.encMECB(m))
	return m, ready
}

// fetchFECB makes page's FECB available to the datapath and returns when.
func (c *Controller) fetchFECB(now config.Cycle, page uint64) (*counters.FECB, config.Cycle) {
	f := c.getFECB(page)
	ready := c.fetchMeta(now, fecbAddr(page), fecbLeaf(page), c.encFECB(f))
	return f, ready
}

// touchDirtyCounter accounts one update of a counter block outside the data
// path (identity tagging, shredding, key rotation) and enforces the Osiris
// stop-loss bound: after StopLoss unpersisted bumps the block is written
// through to NVM so crash recovery only ever needs to search a bounded
// counter window. bumpLines is the data path's n-bump form.
func (c *Controller) touchDirtyCounter(now config.Cycle, metaAddr uint64, leaf int, content []byte) config.Cycle {
	u, persists := c.unpersisted[metaAddr]+1, 0
	if u >= c.cfg.Security.StopLoss {
		c.persistCounterAt(metaAddr)
		u, persists = 0, 1
	} else {
		c.unpersisted[metaAddr] = u
	}
	return c.counterDirtied(now, now, metaAddr, leaf, content, persists, u == 0)
}

// counterDirtied is the tail every counter-block update shares: the block
// (whose encoding is now content) goes dirty in the metadata cache, its
// Merkle leaf and path are updated, and the stop-loss write-throughs the
// update triggered are issued at writeThroughAt (background writes; bank
// time accounted). durable reports that the last bump was one of them, so
// the cached copy matches NVM again. Returns when the MT MAC update is done.
func (c *Controller) counterDirtied(now, writeThroughAt config.Cycle, metaAddr uint64, leaf int, content []byte, persists int, durable bool) config.Cycle {
	c.mcacheFor(metaAddr).Lookup(metaAddr, true) // mark dirty (present: just fetched)
	c.insertMeta(now, metaAddr, true)
	c.mt.Update(leaf, content)
	// Merkle path nodes become dirty in the metadata cache as well.
	c.mtPath = c.mt.AppendPathNodes(c.mtPath[:0], leaf)
	for _, n := range c.mtPath {
		c.insertMeta(now, mtNodeAddr(n), true)
	}
	for i := 0; i < persists; i++ {
		c.PCM.Access(writeThroughAt, addr.Phys(metaAddr), true)
	}
	if persists > 0 {
		c.st.Add("mc.stoploss_persists", uint64(persists))
	}
	if durable {
		c.mcacheFor(metaAddr).Clean(metaAddr)
	}
	return now + c.cfg.Security.MACLatency
}

// persistCounterNow writes a counter block through to NVM immediately
// (background bank occupancy, no caller stall) and records it durable.
func (c *Controller) persistCounterNow(now config.Cycle, metaAddr uint64) {
	c.PCM.Access(now, addr.Phys(metaAddr), true)
	c.mcacheFor(metaAddr).Clean(metaAddr)
	c.persistCounterAt(metaAddr)
}

// merkle helpers used by recovery. Unlike the datapath's scratch encoders,
// the leaves map retains every slice until Rebuild consumes it, so each
// block gets its own freshly allocated encoding here.
func (c *Controller) rebuildTreeFromCounters() {
	leaves := make(map[int][]byte, 2*len(c.mecb)+c.ottRegionLeafCount())
	for page, m := range c.mecb {
		b := m.Encode()
		leaves[mecbLeaf(page)] = b[:]
	}
	for page, f := range c.fecb {
		b := f.MustEncode()
		leaves[fecbLeaf(page)] = b[:]
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
