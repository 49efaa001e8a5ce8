package memctrl

import (
	"encoding/binary"
	"strconv"

	"fsencr/internal/addr"
	"fsencr/internal/aesctr"
	"fsencr/internal/config"
	"fsencr/internal/counters"
	"fsencr/internal/obsplane/journal"
)

// ReadLine services a last-level-cache miss for the line containing pa,
// arriving at the controller at time now. It returns the plaintext line and
// the completion time (Figure 7, read operation).
func (c *Controller) ReadLine(now config.Cycle, pa addr.Phys) (aesctr.Line, config.Cycle) {
	c.noteCycle(now)
	la := pa.LineAlign()
	raw := la.Raw()
	cipher := c.PCM.ReadLine(raw)
	c.st.Inc("mc.reads")

	if !c.mode.MemEncryption {
		return cipher, c.PCM.Access(now, raw, false)
	}

	// Data array access and counter fetch proceed in parallel (CTR mode
	// hides OTP generation under the array access when counters hit).
	dataDone := c.PCM.Access(now, raw, false)
	page := la.PageNum()
	li := la.LineInPage()

	mecb, ctrReady := c.fetchMECB(now, page)
	pad := &c.padScratch
	c.memEngine.OTPInto(pad, memIV(page, li, mecb.Major, mecb.Minor[li]))
	otpReady := ctrReady + c.memEngine.Latency()
	xors := 1
	// padComplete: the decrypt applied every pad component the data was
	// written under, so the plaintext is checkable against its ECC tag. A
	// DF line whose file pad could not be applied (missing key, locked
	// datapath) deliberately decrypts to garbage and must not be flagged.
	padComplete := true

	if la.IsDF() && c.fileActive() {
		fecb, fReady := c.fetchFECB(now, page)
		key, kReady, ok := c.lookupKey(fReady, fecb.GroupID, fecb.FileID)
		if ok {
			filePad := &c.filePadScratch
			c.engineFor(key).OTPInto(filePad, fileIV(page, li, fecb.Major, fecb.Minor[li]))
			aesctr.XORInto(pad, filePad)
			fileOTPReady := kReady + c.cfg.Security.AESLatency
			if fileOTPReady > otpReady {
				otpReady = fileOTPReady
			}
			xors++
		} else {
			// No key available (deleted file or locked datapath): the line
			// decrypts with the memory pad only, yielding unintelligible
			// bytes — exactly the §VI guarantee.
			c.st.Inc("mc.key_unavailable")
			c.journalDFMismatch(kReady, page, fecb.GroupID, fecb.FileID)
			padComplete = false
		}
	} else if la.IsDF() && c.mode.FileEncryption {
		padComplete = false // locked datapath: file pad skipped
	}

	done := maxCycle(dataDone, otpReady) + config.Cycle(xors)*c.cfg.Security.XORLatency
	c.tReadCycles.Observe(uint64(done - now))
	aesctr.XORInto(&cipher, pad)
	if padComplete {
		c.checkECC(done, la.LineNum(), page, li, &cipher)
	}
	return cipher, done
}

// checkECC verifies a decrypted line against the Osiris check tag stored in
// its ECC bits. A mismatch means the ciphertext at rest was corrupted or
// tampered with (bit rot, torn write, physical attacker) — the plaintext
// the caller is about to receive is garbage, and silently returning it
// would defeat the integrity story, so the event is counted and journalled
// like a Merkle verification failure. Lines without a tag (never written,
// or shredded) and the post-crash pre-recovery window (counters are rolled
// back by design) are skipped.
func (c *Controller) checkECC(now config.Cycle, lineNum, page uint64, li int, plain *aesctr.Line) {
	if c.crashed {
		return
	}
	tag, ok := c.ecc[lineNum]
	if !ok || eccTag(plain) == tag {
		return
	}
	c.violations++
	c.st.Inc("mc.data_ecc_errors")
	c.jrn.Emit(journal.Event{Cycle: uint64(now), Type: journal.DataECCError,
		Page: page, Detail: "line " + strconv.Itoa(li)})
}

// WriteLine services a dirty writeback (or flush) of the line containing
// pa, carrying plaintext plain. It returns the time the write is accepted
// into the controller's persistence domain — the point an SFENCE may
// proceed past (ADR semantics). Encryption, counter updates, and the PCM
// array write continue in the background (Figure 7, write operation),
// applying backpressure only when the write queue fills.
func (c *Controller) WriteLine(now config.Cycle, pa addr.Phys, plain aesctr.Line) config.Cycle {
	c.noteCycle(now)
	la := pa.LineAlign()
	raw := la.Raw()
	c.st.Inc("mc.writes")
	accepted := c.acceptWrite(now)

	if !c.mode.MemEncryption {
		c.PCM.WriteLine(raw, plain)
		done := c.PCM.Access(accepted, raw, true)
		c.writeQueue = append(c.writeQueue, done)
		return accepted
	}

	page := la.PageNum()
	li := la.LineInPage()

	mecb, ctrReady := c.fetchMECB(accepted, page)
	// Minor-counter overflow forces a whole-page re-encryption under the
	// incremented major counter before this write can proceed.
	overflowed := mecb.Minor[li] == config.MinorCounterMax
	if overflowed {
		ctrReady = c.reencryptPageMem(ctrReady, page, li)
	} else {
		mecb.Bump(li)
	}
	ctrReady = c.touchDirtyCounter(ctrReady, mecbAddr(page), mecbLeaf(page), c.encMECB(mecb))
	if overflowed {
		// Major bumps are persisted eagerly so the Osiris recovery window
		// never has to search across a counter wrap (§III-H).
		c.persistCounterNow(ctrReady, mecbAddr(page))
	}
	pad := &c.padScratch
	c.memEngine.OTPInto(pad, memIV(page, li, mecb.Major, mecb.Minor[li]))
	otpReady := ctrReady + c.memEngine.Latency()
	xors := 1

	isFile := la.IsDF() && c.fileActive()
	if isFile {
		fecb, fReady := c.fetchFECB(accepted, page)
		fileOverflowed := fecb.Minor[li] == config.MinorCounterMax
		if fileOverflowed {
			fReady = c.reencryptPageFile(fReady, page, li)
		} else {
			fecb.Bump(li)
		}
		fReady = c.touchDirtyCounter(fReady, fecbAddr(page), fecbLeaf(page), c.encFECB(fecb))
		if fileOverflowed {
			c.persistCounterNow(fReady, fecbAddr(page))
		}
		key, kReady, ok := c.lookupKey(fReady, fecb.GroupID, fecb.FileID)
		if ok {
			filePad := &c.filePadScratch
			c.engineFor(key).OTPInto(filePad, fileIV(page, li, fecb.Major, fecb.Minor[li]))
			aesctr.XORInto(pad, filePad)
			if r := kReady + c.cfg.Security.AESLatency; r > otpReady {
				otpReady = r
			}
			xors++
		} else {
			c.st.Inc("mc.key_unavailable")
			c.journalDFMismatch(kReady, page, fecb.GroupID, fecb.FileID)
		}
	}

	// Osiris: the line's ECC bits carry a check tag over the plaintext, so
	// the counter used for this write is recoverable after a crash. Taken
	// before the in-place encryption below consumes the plaintext.
	tag := eccTag(&plain)
	aesctr.XORInto(&plain, pad)
	writeStart := otpReady + config.Cycle(xors)*c.cfg.Security.XORLatency
	done := c.PCM.Access(writeStart, raw, true)
	c.PCM.WriteLine(raw, plain)
	c.writeQueue = append(c.writeQueue, done)
	c.ecc[la.LineNum()] = tag
	c.tWriteAccept.Observe(uint64(accepted - now))
	return accepted
}

// fileActive reports whether the file-encryption datapath should engage.
func (c *Controller) fileActive() bool {
	return c.mode.FileEncryption && !c.locked
}

// journalDFMismatch records a DF-tagged access whose file key could not be
// resolved: the DF bit promised a tunnel that is not open (deleted file,
// locked datapath, or a stale tag).
func (c *Controller) journalDFMismatch(now config.Cycle, page uint64, group uint32, file uint16) {
	c.jrn.Emit(journal.Event{Cycle: uint64(now), Type: journal.DFMismatch,
		Page: page, Group: group, File: file})
}

// reencryptPageMem handles a memory-side minor overflow on page: every line
// is read, stripped of its old memory OTP, and rewritten under the new
// major counter. Costs 64 reads + 64 writes of the page plus AES work.
func (c *Controller) reencryptPageMem(now config.Cycle, page uint64, bumpLine int) config.Cycle {
	c.st.Inc("mc.mem_reencryptions")
	m := c.mecb[page]
	old := *m
	r := m.Bump(bumpLine) // wraps: major++, minors reset, minor[bumpLine]=1
	counters.JournalBump(c.jrn, uint64(now), page, counters.DomainMem, r)
	done := c.reencryptLines(now, page, func(li int, oldPad, newPad *aesctr.Line) {
		c.memEngine.OTPInto(oldPad, memIV(page, li, old.Major, old.Minor[li]))
		c.memEngine.OTPInto(newPad, memIV(page, li, m.Major, m.Minor[li]))
	})
	c.span("memctrl", "reencrypt_mem", uint64(now), uint64(done))
	c.jrn.Emit(journal.Event{Cycle: uint64(now), Type: journal.PageReencryptMem, Page: page})
	return done
}

// reencryptPageFile handles a file-side minor overflow, analogous to
// reencryptPageMem but swapping only the file OTP component.
func (c *Controller) reencryptPageFile(now config.Cycle, page uint64, bumpLine int) config.Cycle {
	c.st.Inc("mc.file_reencryptions")
	f := c.fecb[page]
	old := *f
	r := f.Bump(bumpLine)
	counters.JournalBump(c.jrn, uint64(now), page, counters.DomainFile, r)
	key, _, ok := c.lookupKey(now, f.GroupID, f.FileID)
	if !ok {
		return now
	}
	eng := c.engineFor(key)
	done := c.reencryptLines(now, page, func(li int, oldPad, newPad *aesctr.Line) {
		eng.OTPInto(oldPad, fileIV(page, li, old.Major, old.Minor[li]))
		eng.OTPInto(newPad, fileIV(page, li, f.Major, f.Minor[li]))
	})
	c.span("memctrl", "reencrypt_file", uint64(now), uint64(done))
	c.jrn.Emit(journal.Event{Cycle: uint64(now), Type: journal.PageReencryptFile,
		Page: page, Group: f.GroupID, File: f.FileID})
	return done
}

// reencryptLines rewrites every line of page, swapping oldPad for newPad.
// The pads callback fills caller-owned buffers so the 64-line sweep works
// without any per-line Line copies.
func (c *Controller) reencryptLines(now config.Cycle, page uint64, pads func(li int, oldPad, newPad *aesctr.Line)) config.Cycle {
	t := now
	base := addr.Phys(page * config.PageSize)
	// Controller-owned buffers, since locals escape through the
	// cipher.Block interface call.
	oldPad, newPad := &c.reencOldPad, &c.reencNewPad
	for li := 0; li < config.LinesPerPage; li++ {
		la := base + addr.Phys(li*config.LineSize)
		pads(li, oldPad, newPad)
		cipher := c.PCM.ReadLine(la)
		t = c.PCM.Access(t, la, false)
		aesctr.XORInto(&cipher, oldPad)
		aesctr.XORInto(&cipher, newPad)
		c.PCM.WriteLine(la, cipher)
		t = c.PCM.Access(t, la, true)
	}
	return t + 2*c.cfg.Security.AESLatency
}

func memIV(page uint64, li int, major uint64, minor uint8) aesctr.IV {
	return aesctr.IV{
		PageID:     page,
		LineInPage: uint8(li),
		Major:      major,
		Minor:      minor,
		Domain:     aesctr.DomainMemory,
	}
}

func fileIV(page uint64, li int, major uint32, minor uint8) aesctr.IV {
	return aesctr.IV{
		PageID:     page,
		LineInPage: uint8(li),
		Major:      uint64(major),
		Minor:      minor,
		Domain:     aesctr.DomainFile,
	}
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

func maxCycle(a, b config.Cycle) config.Cycle {
	if a > b {
		return a
	}
	return b
}
