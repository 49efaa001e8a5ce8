package memctrl

import (
	"errors"
	"fmt"
	"math/bits"
	"slices"

	"fsencr/internal/addr"
	"fsencr/internal/aesctr"
	"fsencr/internal/config"
	"fsencr/internal/counters"
)

// Crash simulates a power loss at the memory controller (§III-H): all
// volatile state — the metadata cache and any counter updates that were not
// yet persisted under the Osiris stop-loss discipline — is lost. If
// backupPower is true, the small (2 KB) OTT is flushed to the encrypted OTT
// region before power dies, as modern persistent processors do for their
// buffers; otherwise its entries are lost (keys must be re-derived from
// passphrases by the OS and re-installed).
//
// The Merkle root and the keys sealed in the processor survive (they are
// modelled as persistent processor registers/fuses).
func (c *Controller) Crash(backupPower bool) {
	if !c.mode.MemEncryption {
		return
	}
	c.crashed = true
	c.clearMetaCaches()
	if c.ottTable != nil {
		if backupPower {
			c.FlushOTT()
		}
		c.ottTable.Clear()
	}
	// The in-Go "current" counter map models state whose most recent
	// increments lived only in the (now dead) metadata cache. Roll every
	// counter block back to its last persisted value; Recover must
	// reconstruct the rest from the ECC tags.
	c.preCrash = c.ctr
	c.preCrashRoot = c.mt.Root()
	c.ctr = make(map[uint64]*counters.CB, len(c.persisted))
	for slot, b := range c.persisted {
		bb := b
		c.ctr[slot] = &bb
	}
	c.unpersisted = make(map[uint64]int)
}

// ErrUnrecoverable reports that Osiris recovery failed for some line.
var ErrUnrecoverable = errors.New("memctrl: counter recovery failed")

// Recover runs Osiris recovery (§II-D, §III-H): for every written line, it
// searches the bounded window of counter candidates allowed by the
// stop-loss discipline, decrypting the NVM ciphertext with each candidate
// and accepting the one whose plaintext matches the line's ECC tag. The
// Merkle tree is then regenerated from the recovered counters and checked
// against the processor-resident root.
func (c *Controller) Recover() error {
	if !c.mode.MemEncryption {
		return nil
	}
	if !c.crashed {
		return errors.New("memctrl: Recover without Crash")
	}
	// Pages in ascending order, so a failing recovery names the same line
	// on every run.
	pages := make([]uint64, 0, len(c.ecc))
	for page := range c.ecc {
		pages = append(pages, page)
	}
	slices.Sort(pages)
	for _, page := range pages {
		tags := c.ecc[page]
		for have := tags.have; have != 0; have &= have - 1 {
			li := bits.TrailingZeros64(have)
			if err := c.recoverLine(page, li, tags.tag[li]); err != nil {
				return err
			}
		}
	}

	// Regenerate the tree and verify against the processor-held root.
	c.rebuildTreeFromCounters()
	if c.mt.Root() != c.preCrashRoot {
		return fmt.Errorf("memctrl: recovered Merkle root mismatch (tampering or unrecoverable counters)")
	}
	// Recovered counters are now, by construction, durable.
	for slot, b := range c.ctr {
		c.persisted[slot] = *b
	}
	c.crashed = false
	return nil
}

// recoverLine recovers the counters of line li of page from its check tag.
func (c *Controller) recoverLine(page uint64, li int, tag uint64) error {
	window := c.cfg.Security.StopLoss
	la := addr.Phys(page*config.PageSize + uint64(li)*config.LineSize)
	mecb, ok := c.ctr[memSlot(page)]
	if !ok {
		return fmt.Errorf("%w: no persisted MECB for page %d", ErrUnrecoverable, page)
	}
	fecb := c.ctr[fileSlot(page)] // nil for never-tagged pages
	cipher := c.PCM.ReadLine(la)

	var key aesctr.Key
	isFile := false
	if c.mode.FileEncryption && fecb != nil && (fecb.GroupID != 0 || fecb.FileID != 0) {
		if e, _, found := c.ottRegion.Lookup(fecb.GroupID, fecb.FileID); found {
			key, isFile = e.Key, true
		} else if k, found := c.ottTable.Lookup(fecb.GroupID, fecb.FileID); found {
			key, isFile = k, true
		}
	}
	if !isFile {
		fecb = nil // the line carries the memory pad only
	}

	// Candidates are tried in place, through the datapath's own pad
	// builder; the persisted minors come back if none matches.
	// Overflows are persisted eagerly, so there is no wrap to search.
	mBase, fBase, fileWindow := mecb.Minor[li], uint8(0), 0
	if fecb != nil {
		fBase, fileWindow = fecb.Minor[li], window
	}
	for dm := 0; dm <= window && int(mBase)+dm <= config.MinorCounterMax; dm++ {
		mecb.Minor[li] = mBase + uint8(dm)
		for df := 0; df <= fileWindow && int(fBase)+df <= config.MinorCounterMax; df++ {
			if fecb != nil {
				fecb.Minor[li] = fBase + uint8(df)
			}
			plain := cipher
			aesctr.XORBytes(plain[:], c.rd.pads(page, li, 1, mecb, fecb, key))
			if eccTag(&plain) == tag {
				c.n.recoveredLines.Add(1)
				return nil
			}
		}
	}
	mecb.Minor[li] = mBase
	if fecb != nil {
		fecb.Minor[li] = fBase
	}
	return fmt.Errorf("%w: line %#x", ErrUnrecoverable, uint64(la))
}

// VerifyRecovery checks (for tests) that recovery reproduced the exact
// pre-crash counter state. It returns a descriptive error on mismatch.
func (c *Controller) VerifyRecovery() error {
	for slot, want := range c.preCrash {
		got, ok := c.ctr[slot]
		if !ok {
			return fmt.Errorf("memctrl: page %d %s counter block missing after recovery", slot/2, slotKind(slot))
		}
		if *got != *want {
			return fmt.Errorf("memctrl: page %d %s counter block mismatch after recovery", slot/2, slotKind(slot))
		}
	}
	return nil
}
