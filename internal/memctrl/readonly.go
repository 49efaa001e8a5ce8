package memctrl

import (
	"strconv"

	"fsencr/internal/addr"
	"fsencr/internal/aesctr"
	"fsencr/internal/audit"
	"fsencr/internal/config"
	"fsencr/internal/obsplane/journal"
)

// This file is the read-only snapshot entry point of the concurrent read
// fast-path: SnapshotReadPage decrypts one page without mutating any
// controller state, so reader goroutines can run it in parallel while the
// shard's owner goroutine is parked behind the shard's reader lock. All
// side effects the live datapath would have produced — stats, audit
// records, ECC-violation accounting — are captured in a ReadDelta the
// owner later applies under its own lock (ApplyReadDelta).
//
// The snapshot path is success-only: anything the live path would handle
// with a mutation (metadata-cache fill, OTT refill, first-touch counter
// creation side effects, journal emission, locked or crashed datapath)
// makes SnapshotReadPage return false, and the caller re-runs the read on
// the owner goroutine with full live semantics.

// Reader is one goroutine's private decrypt context: a forked memory
// engine (shared key schedule, private counter-block scratch), a local
// file-engine cache, and the page-sized OTP scratch buffers the batched
// datapath needs. Readers are pooled by the server; a Reader must never
// be used by two goroutines at once.
type Reader struct {
	mem     *aesctr.Engine
	engines map[aesctr.Key]*aesctr.Engine
	aesLat  config.Cycle

	pad     aesctr.Page
	filePad aesctr.Page
}

// NewReader builds a read-only decrypt context for this controller. Safe
// to call from any goroutine: it reads only construction-time state.
func (c *Controller) NewReader() *Reader {
	r := &Reader{
		engines: make(map[aesctr.Key]*aesctr.Engine),
		aesLat:  c.cfg.Security.AESLatency,
	}
	if c.memEngine != nil {
		r.mem = c.memEngine.Fork()
	}
	return r
}

func (r *Reader) engineFor(key aesctr.Key) *aesctr.Engine {
	e, ok := r.engines[key]
	if !ok {
		e = aesctr.New(key, r.aesLat)
		r.engines[key] = e
	}
	return e
}

// AuditEvent is one deferred page-access audit record.
type AuditEvent struct {
	Op    audit.Op
	Page  uint64
	Group uint32
	File  uint16
}

// ECCEvent is one deferred Osiris check-tag mismatch.
type ECCEvent struct {
	Page uint64
	Line int
}

// ReadDelta accumulates the side effects of snapshot reads for the owner
// goroutine to apply. The zero value is ready to use; Reset recycles it.
type ReadDelta struct {
	Reads  uint64 // line reads to fold into "mc.reads"
	Audits []AuditEvent
	ECC    []ECCEvent
}

// Reset empties the delta, keeping slice capacity.
func (d *ReadDelta) Reset() {
	d.Reads = 0
	d.Audits = d.Audits[:0]
	d.ECC = d.ECC[:0]
}

// Merge folds another delta into this one (a fanned read accumulates its
// helper chunks' deltas in chunk order before handoff to the owner).
func (d *ReadDelta) Merge(o *ReadDelta) {
	d.Reads += o.Reads
	d.Audits = append(d.Audits, o.Audits...)
	d.ECC = append(d.ECC, o.ECC...)
}

// peekKey resolves a file key without side effects. Only the on-chip OTT
// is consulted: a region-only hit would have triggered a table refill on
// the live path, so the snapshot path treats it as a miss and lets the
// owner's fallback perform the refill (after which snapshot reads hit).
func (c *Controller) peekKey(group uint32, file uint16) (aesctr.Key, bool) {
	return c.ottTable.Peek(group, file)
}

// PeekVerifyKey is VerifyKey without side effects (no OTT LRU refresh, no
// probe counters): the snapshot stat/read path uses it to validate a
// caller-supplied passphrase against the installed file key.
func (c *Controller) PeekVerifyKey(group uint32, file uint16, key aesctr.Key) bool {
	if !c.mode.FileEncryption {
		return true
	}
	if k, ok := c.ottTable.Peek(group, file); ok {
		return k == key
	}
	if e, ok := c.ottRegion.Peek(group, file); ok {
		return e.Key == key
	}
	return false
}

// SnapshotReadPage decrypts the page containing pa into dst using only
// immutable reads of controller state, recording deferred side effects in
// d. It returns false — leaving dst unspecified — whenever the live path
// would have mutated state beyond the deferred set: locked or crashed
// controller, untagged DF page, unresolvable or region-only file key.
// On success the plaintext is byte-identical to ReadPageInto's.
func (c *Controller) SnapshotReadPage(rd *Reader, pa addr.Phys, dst *aesctr.Page, d *ReadDelta) bool {
	if c.crashed {
		return false
	}
	base := pa.PageAlign()
	raw := base.Raw()
	c.PCM.PeekPageInto(raw, dst)
	d.Reads += config.LinesPerPage

	if !c.mode.MemEncryption {
		return true
	}

	page := base.PageNum()
	// Value-copy the counter blocks: an absent block decrypts exactly like
	// the fresh zero block getMECB/getFECB would have created — the create
	// side effects (persist snapshot, Merkle leaf) are what the owner's
	// fallback exists for, and a never-written page needs neither.
	var m MECBView
	if mb, ok := c.mecb[page]; ok {
		m.Major, m.Minor = mb.Major, mb.Minor
	}
	rd.mem.OTPPageInto(&rd.pad, page, m.Major, &m.Minor, aesctr.DomainMemory)

	if base.IsDF() {
		if !c.fileActive() {
			return false // locked datapath: live path journals and decrypts to garbage
		}
		fb, ok := c.fecb[page]
		if !ok || (fb.GroupID == 0 && fb.FileID == 0) {
			// Untagged FECB: the live path would journal a DF mismatch.
			return false
		}
		group, file, major, minors := fb.GroupID, fb.FileID, fb.Major, fb.Minor
		key, ok := c.peekKey(group, file)
		if !ok {
			return false
		}
		d.Audits = append(d.Audits, AuditEvent{Op: audit.OpReadPage, Page: page, Group: group, File: file})
		rd.engineFor(key).OTPPageInto(&rd.filePad, page, uint64(major), &minors, aesctr.DomainFile)
		aesctr.XORPageInto(&rd.pad, &rd.filePad)
	}

	aesctr.XORPageInto(dst, &rd.pad)

	// Osiris check tags, deferred: mismatches are recorded, accounted by
	// the owner at drain time.
	lineNum := base.LineNum()
	for li := 0; li < config.LinesPerPage; li++ {
		tag, ok := c.ecc[lineNum+uint64(li)]
		if ok && eccTag((*aesctr.Line)(dst[li*config.LineSize:(li+1)*config.LineSize])) != tag {
			d.ECC = append(d.ECC, ECCEvent{Page: page, Line: li})
		}
	}
	return true
}

// MECBView is the value form of a memory counter block the snapshot path
// copies under the reader lock.
type MECBView struct {
	Major uint64
	Minor [config.LinesPerPage]uint8
}

// ApplyReadDelta folds the deferred side effects of snapshot reads into
// the controller. Must run on the owner goroutine (it mutates stats, the
// audit chain, and the journal). now stamps the deferred audit and
// journal records: snapshot reads advance no simulated clock, so the
// owner's current time is the only meaningful timestamp.
func (c *Controller) ApplyReadDelta(now config.Cycle, d *ReadDelta) {
	if d.Reads > 0 {
		c.st.Add("mc.reads", d.Reads)
	}
	for _, a := range d.Audits {
		c.aud.Append(uint64(now), a.Op, a.Page, a.Group, a.File)
	}
	for _, e := range d.ECC {
		c.violations++
		c.st.Inc("mc.data_ecc_errors")
		c.jrn.Emit(journal.Event{Cycle: uint64(now), Type: journal.DataECCError,
			Page: e.Page, Detail: "line " + strconv.Itoa(e.Line)})
	}
}
