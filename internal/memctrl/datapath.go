package memctrl

import (
	"encoding/binary"
	"math/bits"
	"strconv"

	"fsencr/internal/addr"
	"fsencr/internal/aesctr"
	"fsencr/internal/audit"
	"fsencr/internal/config"
	"fsencr/internal/counters"
	"fsencr/internal/obsplane/journal"
)

// This file is the live Figure-7 datapath. A request is a run of n whole
// lines of one page — 1 for a cache miss or writeback, LinesPerPage for a
// page op — and readLines/writeLines are its only implementation. A page op
// therefore leaves byte-identical NVM contents and identical security state
// (counters, Merkle tree, Osiris persistence, ECC tags, journal) to 64 line
// ops, a minor-counter wrap included (bumpLines wraps a line at its turn in
// the run), while paying the per-request costs — counter-block fetch, key
// lookup, AES key schedule, Merkle-leaf MAC update — once. The line and
// page timing models differ in four places, each marked "n:" with its
// reason: the PCM side (accessLines), the pad-pipeline tail of a read
// (readLines), the page-granular audit record (fileSide) and a burst's
// stop-loss write-through time (bumpLines).

// ReadLine services a last-level-cache miss for the line containing pa,
// arriving at the controller at time now. It returns the plaintext line and
// the completion time (Figure 7, read operation).
func (c *Controller) ReadLine(now config.Cycle, pa addr.Phys) (aesctr.Line, config.Cycle) {
	var line aesctr.Line
	done := c.readLines(now, pa.LineAlign(), 1, line[:])
	return line, done
}

// WriteLine services a dirty writeback (or flush) of the line containing
// pa, carrying plaintext plain. It returns the time the write is accepted
// into the controller's persistence domain — the point an SFENCE may
// proceed past (ADR semantics). Encryption, counter updates, and the PCM
// array write continue in the background (Figure 7, write operation),
// applying backpressure only when the write queue fills.
func (c *Controller) WriteLine(now config.Cycle, pa addr.Phys, plain aesctr.Line) config.Cycle {
	return c.writeLines(now, pa.LineAlign(), 1, plain[:])
}

// ReadPageInto services a full-page fetch (page-cache fill, DAX page read)
// into dst, returning the completion time. Equivalent plaintext to 64
// ReadLine calls; the PCM side issues all 64 line reads as one burst.
func (c *Controller) ReadPageInto(now config.Cycle, pa addr.Phys, dst *aesctr.Page) (done config.Cycle) {
	if ts := c.trace; ts.Active() {
		ts.Enter()
		defer func() { ts.Exit("memctrl", "read_page", uint64(now), uint64(done), 0) }()
	}
	return c.readLines(now, pa.PageAlign(), config.LinesPerPage, dst[:])
}

// WritePage services a full-page store (page-cache write-back, DAX page
// copy) arriving at time now, carrying plaintext plain. It is functionally
// and security-state equivalent to 64 chained WriteLine calls over the
// page's lines, a minor-counter wrap included. Returns the time the last
// line is accepted into the persistence domain.
func (c *Controller) WritePage(now config.Cycle, pa addr.Phys, plain *aesctr.Page) (done config.Cycle) {
	if ts := c.trace; ts.Active() {
		ts.Enter()
		defer func() { ts.Exit("memctrl", "write_page", uint64(now), uint64(done), 0) }()
	}
	return c.writeLines(now, pa.PageAlign(), config.LinesPerPage, plain[:])
}

// fileActive reports whether the file-encryption datapath should engage.
func (c *Controller) fileActive() bool {
	return c.mode.FileEncryption && !c.locked
}

// readLines decrypts the n lines starting at line-aligned la into dst and
// returns the completion time.
func (c *Controller) readLines(now config.Cycle, la addr.Phys, n int, dst []byte) config.Cycle {
	c.noteCycle(now)
	raw := la.Raw()
	c.PCM.ReadLinesInto(raw, dst)
	c.n.reads.Add(uint64(n))

	// Data array access and counter fetch proceed in parallel (CTR mode
	// hides OTP generation under the array access when counters hit).
	for li := 0; li < n; li++ {
		c.lineStart[li] = now
	}
	dataDone := c.accessLines(now, raw, n, false)
	if !c.mode.MemEncryption {
		return dataDone
	}

	page, li0 := la.PageNum(), la.LineInPage()
	// n: the run's pads pipeline through the AES engine one issue slot per
	// line, so the last line's pad trails the first by n-1 cycles.
	tail := config.Cycle(n - 1)
	mecb, ctrReady := c.fetchCtr(now, memSlot(page))
	otpReady := ctrReady + c.rd.mem.Latency() + tail
	xors := config.Cycle(1)
	// padComplete: the decrypt applied every pad component the data was
	// written under, so the plaintext is checkable against its ECC tag. A
	// DF line whose file pad could not be applied (missing key, locked
	// datapath) deliberately decrypts to garbage and must not be flagged.
	padComplete := true
	var fecb *counters.CB
	var key aesctr.Key
	if la.IsDF() && c.fileActive() {
		var kReady config.Cycle
		if fecb, key, kReady = c.fileSide(now, page, li0, n, audit.OpReadPage); fecb != nil {
			otpReady = max(otpReady, kReady+c.cfg.Security.AESLatency+tail)
			xors++
		} else {
			padComplete = false
		}
	} else if la.IsDF() && c.mode.FileEncryption {
		padComplete = false // locked datapath: file pad skipped
	}

	done := max(dataDone, otpReady) + xors*c.cfg.Security.XORLatency
	c.tReadCycles.Observe(uint64(done - now))
	aesctr.XORBytes(dst, c.rd.pads(page, li0, n, mecb, fecb, key))
	// The post-crash pre-recovery window is skipped: counters are rolled
	// back by design.
	if padComplete && !c.crashed {
		for bad := c.eccBad(page, li0, dst); bad != 0; bad &= bad - 1 {
			c.eccViolation(done, page, li0+bits.TrailingZeros64(bad))
		}
	}
	return done
}

// writeLines encrypts and stores the n lines starting at line-aligned la
// and returns the time the last of them is accepted into the persistence
// domain.
func (c *Controller) writeLines(now config.Cycle, la addr.Phys, n int, plain []byte) config.Cycle {
	c.noteCycle(now)
	raw := la.Raw()
	c.n.writes.Add(uint64(n))
	c.retireWrites(now)
	accepted := c.acceptSlot(now)
	if !c.mode.MemEncryption {
		c.PCM.WriteLinesFrom(raw, plain)
		return c.issueWrites(now, accepted, raw, n, accepted)
	}

	page, li0 := la.PageNum(), la.LineInPage()
	mecb, ctrReady := c.fetchCtr(accepted, memSlot(page))
	ctrReady = c.bumpLines(ctrReady, memSlot(page), li0, n, mecb)
	// The run's OTPs pipeline through the AES engine: line 0's pad after
	// one traversal, each following line one cycle behind (issueWrites
	// spaces the per-line data-ready times).
	otpReady := ctrReady + c.rd.mem.Latency()
	xors := config.Cycle(1)
	var fecb *counters.CB
	var key aesctr.Key
	if la.IsDF() && c.fileActive() {
		var kReady config.Cycle
		if fecb, key, kReady = c.fileSide(accepted, page, li0, n, audit.OpWritePage); fecb != nil {
			otpReady = max(otpReady, kReady+c.cfg.Security.AESLatency)
			xors++
		}
	}

	// Built only now, after both sides' counter work: a re-encryption inside
	// bumpLines borrows the same pad buffers.
	pad := c.rd.pads(page, li0, n, mecb, fecb, key)
	// Osiris: the lines' ECC bits carry a check tag over the plaintext, so
	// the counter used for this write is recoverable after a crash.
	c.eccSet(page, li0, plain)
	// Encrypt into the pad buffer (pad ^= plain), leaving the caller's
	// plaintext untouched, and land the ciphertext in one store.
	aesctr.XORBytes(pad, plain)
	c.PCM.WriteLinesFrom(raw, pad)
	return c.issueWrites(now, accepted, raw, n, otpReady+xors*c.cfg.Security.XORLatency)
}

// accessLines times the PCM side of an n-line request: line li issues at
// c.lineStart[li], completes at c.lineDone[li], and the last completion is
// returned.
//
// n: the device offers one bank access or the page burst, and the two keep
// different books (the burst folds its event counters once per page and
// carries the pcm trace span), so a lone line takes Access and a page takes
// AccessPage, whose 64 accesses drain the bank stripe in parallel.
func (c *Controller) accessLines(now config.Cycle, raw addr.Phys, n int, write bool) config.Cycle {
	if n == 1 {
		c.lineDone[0] = c.PCM.Access(c.lineStart[0], raw, write)
		return c.lineDone[0]
	}
	return c.PCM.AccessPage(now, raw, write, &c.lineStart, &c.lineDone)
}

// issueWrites claims one persistence-domain slot per line (the run's accept
// rate), schedules the bank writes with per-line data-ready times, and
// posts their completions to the write queue. Line li's write may start
// once its slot is claimed and its data (pad pipeline) is ready at
// dataReady0+li. Returns the last accept time — the run's ADR point.
func (c *Controller) issueWrites(now, firstAccept config.Cycle, raw addr.Phys, n int, dataReady0 config.Cycle) config.Cycle {
	accept := firstAccept
	for li := 0; li < n; li++ {
		if li > 0 {
			accept = c.acceptSlot(accept)
		}
		c.lineStart[li] = max(dataReady0+config.Cycle(li), accept)
	}
	c.accessLines(now, raw, n, true)
	c.postWrites(c.lineDone[:n])
	// Long-standing quirk the figures' telemetry exports are pinned to: an
	// unencrypted line write records no accept-latency sample.
	if c.mode.MemEncryption || n > 1 {
		c.tWriteAccept.Observe(uint64(accept - now))
	}
	return accept
}

// bumpLines advances the minor counters of slot's block b — already fetched
// — for lines li0..li0+n-1 under the Osiris stop-loss discipline, and
// pushes the block through the metadata cache and Merkle tree once. Returns
// the counter-ready time.
func (c *Controller) bumpLines(now config.Cycle, slot uint64, li0, n int, b *counters.CB) config.Cycle {
	u, persists, wrapped := c.unpersisted[slot], 0, false
	for li, last := li0, li0+n-1; li <= last; li++ {
		// Minor-counter overflow forces a whole-page re-encryption under the
		// incremented major at this line's turn, before the run's pads are
		// built; the wrapping Bump is this line's bump.
		wrap := b.Minor[li] == config.MinorCounterMax
		if wrap {
			now = c.reencryptPage(now, slot, li, b, li0, n)
		} else {
			b.Minor[li]++
		}
		if u++; u >= c.cfg.Security.StopLoss {
			// Stop-loss point: the block as bumped so far is what reaches
			// NVM. Each write-through supersedes the one before it and
			// nothing runs between them, so only the run's last point —
			// the one no further point can follow — takes the durable
			// snapshot, mid-loop, with the later lines not yet bumped. A
			// later wrap supersedes it with a snapshot of its own.
			if last-li < c.cfg.Security.StopLoss {
				c.persistCounter(slot)
			}
			u, persists = 0, persists+1
		}
		if wrap {
			// Major bumps are persisted eagerly so the Osiris recovery window
			// never has to search across a counter wrap (§III-H); the
			// stop-loss window restarts there.
			c.persistCounter(slot)
			u, wrapped = 0, true
		}
	}
	if u > 0 {
		c.unpersisted[slot] = u
	}
	// n: a lone bump's stop-loss write-through issues as the bump happens; a
	// burst's are held until the one Merkle MAC update that covers the
	// whole batch is done.
	writeThroughAt := now
	if n > 1 {
		writeThroughAt += c.cfg.Security.MACLatency
	}
	ready := c.counterDirtied(now, writeThroughAt, slot, b, persists, u == 0)
	if wrapped {
		c.PCM.Access(ready, addr.Phys(slotAddr(slot)), true) // the eager persist's write-through
	}
	return ready
}

// reencryptPage handles a minor-counter overflow at line li of slot's block
// b, inside a store to lines li0..li0+n-1: the bump wraps (major++, minors
// reset, minor[li] = 1) and every line of the page the store does not
// overwrite is read, stripped of that kind's old OTP, and rewritten under
// the new major counter. A file-side overflow whose key is gone swaps
// nothing: the data is unreadable either way.
func (c *Controller) reencryptPage(now config.Cycle, slot uint64, li int, b *counters.CB, li0, n int) config.Cycle {
	page, kind := slot/2, slotKind(slot)
	spanName, ev, domain := "reencrypt_mem", journal.PageReencryptMem, uint8(aesctr.DomainMemory)
	if kind == counters.File {
		spanName, ev, domain = "reencrypt_file", journal.PageReencryptFile, aesctr.DomainFile
	}
	c.n.reencryptions[kind].Add(1)
	old := *b
	counters.JournalBump(c.jrn, uint64(now), page, kind, b.Bump(kind, li))
	eng := c.rd.mem
	if kind == counters.File {
		key, _, ok := c.lookupKey(now, b.GroupID, b.FileID)
		if !ok {
			return now
		}
		eng = c.rd.engineFor(key)
	}
	done := c.swapPads(now, page, domain, eng, &old, eng, b, li0, n)
	c.span("memctrl", spanName, uint64(now), uint64(done))
	// A memory block's identity is zero, as the event's is for one.
	c.jrn.Emit(journal.Event{Cycle: uint64(now), Type: ev, Page: page, Group: b.GroupID, File: b.FileID})
	return done
}

// swapPads rewrites the lines of page a store to lines li0..li0+n-1 does not
// overwrite, stripping the pad of (oldEng, old) and applying that of
// (newEng, cur) in one counter domain. The overwritten lines keep their old
// ciphertext: re-encrypting one would put its old plaintext under the pad
// the store then uses for the new. Timed as 64 reads + 64 writes of the
// page plus AES work whichever lines it skips. It borrows the crypt
// context's two pad buffers, which is safe because no request builds its
// own pad until its counter work is done.
func (c *Controller) swapPads(now config.Cycle, page uint64, domain uint8,
	oldEng *aesctr.Engine, old *counters.CB, newEng *aesctr.Engine, cur *counters.CB, li0, n int) config.Cycle {
	swap, data := c.rd.pad[:], c.rd.filePad[:]
	oldEng.OTPLinesInto(swap, page, 0, old.Major, &old.Minor, domain)
	newEng.OTPLinesInto(data, page, 0, cur.Major, &cur.Minor, domain)
	aesctr.XORBytes(swap, data)
	clear(swap[li0*config.LineSize : (li0+n)*config.LineSize])
	base := addr.Phys(page * config.PageSize)
	c.PCM.ReadLinesInto(base, data)
	aesctr.XORBytes(data, swap)
	c.PCM.WriteLinesFrom(base, data)
	t := now
	for li := 0; li < config.LinesPerPage; li++ {
		la := base + addr.Phys(li*config.LineSize)
		t = c.PCM.Access(t, la, false)
		t = c.PCM.Access(t, la, true)
	}
	return t + 2*c.cfg.Security.AESLatency
}

// fileSide is the file half of a request (op: OpReadPage or OpWritePage) on
// a DF page: FECB fetch, audit record, a write's counter bumps, key lookup. It returns the FECB, the
// key and when the key is available. With no key available (deleted file or
// stale tag: the DF bit promised a tunnel that is not open) the FECB comes
// back nil and each line is counted and journalled: the lines then take the
// memory pad only, which on a read yields unintelligible bytes — exactly
// the §VI guarantee.
func (c *Controller) fileSide(now config.Cycle, page uint64, li0, n int, op audit.Op) (*counters.CB, aesctr.Key, config.Cycle) {
	f, fReady := c.fetchCtr(now, fileSlot(page))
	// n: the audit plane records page-granularity accesses only.
	if n == config.LinesPerPage {
		c.aud.Append(uint64(fReady), op, page, f.GroupID, f.FileID)
	}
	if op == audit.OpWritePage {
		fReady = c.bumpLines(fReady, fileSlot(page), li0, n, f)
	}
	key, kReady, ok := c.lookupKey(fReady, f.GroupID, f.FileID)
	if ok {
		return f, key, kReady
	}
	c.n.keyUnavailable.Add(uint64(n))
	for i := 0; i < n; i++ {
		c.jrn.Emit(journal.Event{Cycle: uint64(kReady), Type: journal.DFMismatch,
			Page: page, Group: f.GroupID, File: f.FileID})
	}
	return nil, key, kReady
}

// eccPage is one page's Osiris check tags — the ECC lanes beside the frame,
// one entry per page so a run of lines costs one lookup: tag[li] is line
// li's tag when bit li of have is set.
type eccPage struct {
	have uint64
	tag  [config.LinesPerPage]uint64
}

// eccSet stores the Osiris check tag of each 64-byte line of plain, the
// first being line li0 of page.
func (c *Controller) eccSet(page uint64, li0 int, plain []byte) {
	p := c.ecc[page]
	if p == nil {
		p = new(eccPage)
		c.ecc[page] = p
	}
	for off := 0; off < len(plain); off += config.LineSize {
		li := li0 + off/config.LineSize
		p.tag[li] = eccTag((*aesctr.Line)(plain[off : off+config.LineSize]))
		p.have |= 1 << li
	}
}

// eccBad verifies decrypted lines, the first being line li0 of page,
// against the check tags stored in their ECC bits and returns a bitmask of
// the mismatching ones (bit i = the i-th line of plain). Lines without a
// tag (never written, or shredded) pass. Read-only, so snapshot readers may
// call it.
func (c *Controller) eccBad(page uint64, li0 int, plain []byte) (bad uint64) {
	p := c.ecc[page]
	if p == nil {
		return 0
	}
	for off := 0; off < len(plain); off += config.LineSize {
		i := off / config.LineSize
		if li := li0 + i; p.have>>li&1 != 0 && eccTag((*aesctr.Line)(plain[off:off+config.LineSize])) != p.tag[li] {
			bad |= 1 << i
		}
	}
	return bad
}

// eccViolation accounts one check-tag mismatch. It means the ciphertext at
// rest was corrupted or tampered with (bit rot, torn write, physical
// attacker) — the plaintext the caller is about to receive is garbage, and
// silently returning it would defeat the integrity story, so the event is
// counted and journalled like a Merkle verification failure.
func (c *Controller) eccViolation(now config.Cycle, page uint64, li int) {
	c.violations++
	c.n.dataECCErrors.Add(1)
	c.jrn.Emit(journal.Event{Cycle: uint64(now), Type: journal.DataECCError,
		Page: page, Detail: "line " + strconv.Itoa(li)})
}

// eccTag computes the Osiris check tag stored in a line's ECC bits: a
// 64-bit digest of the plaintext. After a crash, a candidate counter is
// correct exactly when decrypting with it reproduces a plaintext matching
// the tag.
//
// The tag models ECC bits, not a security boundary: integrity against an
// adversary comes from the Merkle tree over the counters, and the tag only
// lets recovery distinguish a handful of counter candidates (a wrong
// candidate yields effectively random plaintext, so 64 bits of a decent
// mixer are ample). It is therefore a word-wise FNV-1a variant with a
// final avalanche, not SHA-256 — the hash runs once per NVM write, and a
// cryptographic digest there cost more host time than the simulated write
// itself.
func eccTag(plain *aesctr.Line) uint64 {
	const (
		offset64 = 1469598103934665603
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < config.LineSize; i += 8 {
		h ^= binary.LittleEndian.Uint64(plain[i : i+8])
		h *= prime64
	}
	// Final avalanche (splitmix64 tail) so low-byte differences reach every
	// tag bit.
	h ^= h >> 30
	h *= 0xbf58476d1ce4e5b9
	h ^= h >> 27
	h *= 0x94d049bb133111eb
	h ^= h >> 31
	return h
}
