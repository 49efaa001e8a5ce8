package memctrl

import (
	"math/bits"

	"fsencr/internal/addr"
	"fsencr/internal/aesctr"
	"fsencr/internal/audit"
	"fsencr/internal/config"
	"fsencr/internal/counters"
)

// This file holds the crypt context every pad is built through, and the
// read-only snapshot entry point of the concurrent read fast-path:
// SnapshotReadLines decrypts a run of lines — a page or less — without
// mutating any controller state, so reader goroutines can run it in
// parallel under the machine lock's read side while no mutation bracket
// runs. All side effects the live datapath would have produced — stats,
// audit records, ECC-violation accounting — are captured in a ReadDelta a
// later mutation bracket applies (ApplyReadDelta).
//
// The snapshot path is success-only: anything the live path would handle
// with a mutation (metadata-cache fill, OTT refill, first-touch counter
// creation side effects, journal emission, locked or crashed datapath)
// makes SnapshotReadLines return false, and the caller re-runs the read in
// a mutation bracket with full live semantics.

// Reader is one goroutine's private crypt context: the controller's memory
// engine (engines are immutable, so every Reader shares it), a local
// file-engine cache of at most maxEngines keys, and the two page-sized OTP
// buffers. The controller owns one for the live datapath; snapshot readers
// get theirs from NewReader and are pooled by the server. A Reader must
// never be used by two goroutines at once.
type Reader struct {
	mem     *aesctr.Engine // nil without memory encryption
	engines map[aesctr.Key]*aesctr.Engine

	// Pad buffers live here, not in locals: a local would escape to the
	// heap through the cipher.Block.Encrypt interface call in the OTP
	// generator's reference loop, costing an allocation per request; the
	// generator fully overwrites its destination, so reuse is safe.
	pad     aesctr.Page
	filePad aesctr.Page
}

// NewReader builds a read-only decrypt context for this controller. Safe
// to call from any goroutine: it reads only construction-time state.
func (c *Controller) NewReader() *Reader {
	return &Reader{mem: c.rd.mem, engines: make(map[aesctr.Key]*aesctr.Engine)}
}

// maxEngines bounds a Reader's engine cache. An engine is rebuilt from its
// key alone, so a full cache simply starts over: a shard that has used more
// file keys than this, through create/delete churn, keeps no more.
const maxEngines = 256

func (r *Reader) engineFor(key aesctr.Key) *aesctr.Engine {
	e, ok := r.engines[key]
	if !ok {
		if len(r.engines) >= maxEngines {
			clear(r.engines)
		}
		e = aesctr.New(key, r.mem.Latency())
		r.engines[key] = e
	}
	return e
}

// pads builds the one-time pads of lines li0..li0+n-1 of page — OTP_mem
// from the memory counters mecb and, when fecb is non-nil, XORed with
// OTP_file from its counters under key (Figure 7) — and returns
// them in the context's buffer, valid until its next use. Every pad the
// controller applies to data is built here: the live datapath, snapshot
// reads, recovery's candidate search and the memory-key-only attack hook.
func (r *Reader) pads(page uint64, li0, n int, mecb, fecb *counters.CB, key aesctr.Key) []byte {
	pad := r.pad[:n*config.LineSize]
	r.mem.OTPLinesInto(pad, page, li0, mecb.Major, &mecb.Minor, aesctr.DomainMemory)
	if fecb != nil {
		filePad := r.filePad[:n*config.LineSize]
		r.engineFor(key).OTPLinesInto(filePad, page, li0, fecb.Major, &fecb.Minor, aesctr.DomainFile)
		aesctr.XORBytes(pad, filePad)
	}
	return pad
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

// ReadDelta accumulates the side effects of snapshot reads for a mutation
// bracket to apply. The zero value is ready to use; Reset recycles it.
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

// Add appends o's side effects to d's: applying d then has the effect of
// applying d and o one after the other at the same clock.
func (d *ReadDelta) Add(o *ReadDelta) {
	d.Reads += o.Reads
	d.Audits = append(d.Audits, o.Audits...)
	d.ECC = append(d.ECC, o.ECC...)
}

// Empty reports whether applying d would change nothing.
func (d *ReadDelta) Empty() bool { return d.Reads == 0 && len(d.Audits) == 0 && len(d.ECC) == 0 }

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

// SnapshotReadPage is SnapshotReadLines over the whole page containing pa.
func (c *Controller) SnapshotReadPage(rd *Reader, pa addr.Phys, dst *aesctr.Page, d *ReadDelta) bool {
	return c.SnapshotReadLines(rd, pa.PageAlign(), config.LinesPerPage, dst[:], d)
}

// SnapshotReadLines is readLines of the n lines at line-aligned la (within
// one page) into dst through immutable reads of controller state only, its
// side effects recorded in d. It returns false — dst then unspecified —
// whenever the live path would have mutated state beyond the deferred set:
// locked or crashed controller, untagged DF page, unresolvable or
// region-only file key.
func (c *Controller) SnapshotReadLines(rd *Reader, la addr.Phys, n int, dst []byte, d *ReadDelta) bool {
	if c.crashed {
		return false
	}
	dst = dst[:n*config.LineSize]
	c.PCM.PeekLinesInto(la.Raw(), dst)
	d.Reads += uint64(n)

	if !c.mode.MemEncryption {
		return true
	}

	page, li0 := la.PageNum(), la.LineInPage()
	// An absent counter block decrypts exactly like the fresh zero block
	// getCtr would have created — the create side effects (persist
	// snapshot, Merkle leaf) are what the owner's fallback exists for, and a
	// never-written page needs neither.
	m := c.peekCtr(memSlot(page))
	var fecb *counters.CB
	var key aesctr.Key
	if la.IsDF() {
		if !c.fileActive() {
			return false // locked datapath: live path journals and decrypts to garbage
		}
		fecb = c.ctr[fileSlot(page)]
		if fecb == nil || (fecb.GroupID == 0 && fecb.FileID == 0) {
			// Untagged FECB: the live path would journal a DF mismatch.
			return false
		}
		// Only the on-chip OTT is consulted: a region-only hit would have
		// triggered a table refill on the live path, so it counts as a miss
		// and the owner's fallback performs the refill (after which snapshot
		// reads hit).
		var ok bool
		if key, ok = c.ottTable.Peek(fecb.GroupID, fecb.FileID); !ok {
			return false
		}
		if n == config.LinesPerPage { // n: as fileSide, page accesses only
			d.Audits = append(d.Audits, AuditEvent{Op: audit.OpReadPage, Page: page, Group: fecb.GroupID, File: fecb.FileID})
		}
	}
	aesctr.XORBytes(dst, rd.pads(page, li0, n, &m, fecb, key))

	// Osiris check tags, deferred: mismatches are recorded, accounted by
	// the owner at drain time.
	for bad := c.eccBad(page, li0, dst); bad != 0; bad &= bad - 1 {
		d.ECC = append(d.ECC, ECCEvent{Page: page, Line: li0 + bits.TrailingZeros64(bad)})
	}
	return true
}

// ApplyReadDelta folds the deferred side effects of snapshot reads into
// the controller. Must run in a mutation bracket (it mutates stats, the
// audit chain, and the journal). now stamps the deferred audit and
// journal records: snapshot reads advance no simulated clock, so the
// bracket's current time is the only meaningful timestamp.
func (c *Controller) ApplyReadDelta(now config.Cycle, d *ReadDelta) {
	if d.Reads > 0 {
		c.n.reads.Add(d.Reads)
	}
	for _, a := range d.Audits {
		c.aud.Append(uint64(now), a.Op, a.Page, a.Group, a.File)
	}
	for _, e := range d.ECC {
		c.eccViolation(now, e.Page, e.Line)
	}
}
