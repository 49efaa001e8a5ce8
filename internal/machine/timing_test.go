package machine

import (
	"testing"

	"fsencr/internal/addr"
	"fsencr/internal/config"
	"fsencr/internal/memctrl"
)

// TestADRFenceCheapWhenQueueEmpty verifies the persistence-domain (ADR)
// semantics: CLWB+SFENCE completes at write-queue acceptance, not after the
// slow PCM array write. A single flush+fence must cost far less than the
// PCM write latency (150 ns) plus its row activation.
func TestADRFenceCheapWhenQueueEmpty(t *testing.T) {
	m := newM(memctrl.Mode{MemEncryption: true})
	co := m.Core(0)
	co.Write(0x5000, []byte{1})
	start := co.Now
	co.Flush(0x5000)
	co.Fence()
	persistCost := co.Now - start
	if persistCost > 60 {
		t.Fatalf("flush+fence cost %d cycles; posted writes should accept in ~10", persistCost)
	}
}

// TestWriteQueueBackpressureReachesFence verifies that a saturated write
// queue eventually stalls persists: hammering one line (hence one PCM bank)
// issues writes far faster than the bank can retire them, so later fences
// wait on queue slots. (Spreading the same traffic across banks, as in
// TestADRFenceCheapWhenQueueEmpty, absorbs it without stalls.)
func TestWriteQueueBackpressureReachesFence(t *testing.T) {
	m := newM(memctrl.Mode{})
	co := m.Core(0)
	pa := addr.Phys(0x100000)
	var firstCost, lastCost config.Cycle
	for i := 0; i < 2000; i++ {
		co.Write(pa, []byte{byte(i)})
		start := co.Now
		co.Flush(pa)
		co.Fence()
		cost := co.Now - start
		if i == 0 {
			firstCost = cost
		}
		lastCost = cost
	}
	if lastCost <= firstCost {
		t.Fatalf("no backpressure: first persist %d cycles, 2000th %d", firstCost, lastCost)
	}
}

// TestCTRLatencyMostlyHidden verifies the headline property of counter-mode
// encryption (Figure 2): with counters resident in the metadata cache, OTP
// generation overlaps the data array access, so an encrypted read miss
// costs barely more than a plain one.
func TestCTRLatencyMostlyHidden(t *testing.T) {
	missLatency := func(mode memctrl.Mode) config.Cycle {
		m := newM(mode)
		co := m.Core(0)
		// Warm the counters with a neighbouring line on the same page.
		co.Read(0x7000, []byte{0})
		m.MC.PCM.ResetTiming()
		start := co.Now
		co.Read(0x7040, []byte{0}) // miss; counters cached
		return co.Now - start
	}
	plain := missLatency(memctrl.Mode{})
	enc := missLatency(memctrl.Mode{MemEncryption: true})
	if enc < plain {
		t.Fatalf("encrypted miss (%d) faster than plain (%d)", enc, plain)
	}
	// The exposed cost must be a small tail (XOR + residual AES), far less
	// than a full serialized AES+fetch (~100+ cycles).
	if enc-plain > 50 {
		t.Fatalf("CTR mode not hidden: plain %d, encrypted %d (+%d)", plain, enc, enc-plain)
	}
}

// TestBankParallelismAcrossCores verifies that two cores hammering
// different banks overlap, while the same line serializes through shared
// bank state.
func TestBankParallelismAcrossCores(t *testing.T) {
	run := func(sameBank bool) config.Cycle {
		m := newM(memctrl.Mode{})
		a, b := m.Core(0), m.Core(1)
		buf := []byte{0}
		var paA, paB addr.Phys
		mapping := addr.NewMapping(config.Default().PCM)
		paA = 0x200000
		if sameBank {
			// Same bank, different rows: guaranteed conflicts.
			d := mapping.Decompose(paA)
			for off := uint64(1 << 14); ; off += 1 << 14 {
				cand := paA + addr.Phys(off)
				dc := mapping.Decompose(cand)
				if mapping.BankID(dc) == mapping.BankID(d) && dc.Row != d.Row {
					paB = cand
					break
				}
			}
		} else {
			d := mapping.Decompose(paA)
			for off := uint64(64); ; off += 64 {
				cand := paA + addr.Phys(off)
				if mapping.BankID(mapping.Decompose(cand)) != mapping.BankID(d) {
					paB = cand
					break
				}
			}
		}
		// Alternate row-conflicting accesses from both cores.
		for i := 0; i < 200; i++ {
			a.Read(paA+addr.Phys(i%2*(1<<20)), buf)
			b.Read(paB+addr.Phys(i%2*(1<<21)), buf)
		}
		return m.MaxCoreTime()
	}
	same := run(true)
	diff := run(false)
	if diff >= same {
		t.Fatalf("bank parallelism missing: same-bank %d <= different-bank %d", same, diff)
	}
}

// TestReadLatencyHistogramPopulated checks the machine's miss-latency
// record captures misses.
func TestReadLatencyHistogramPopulated(t *testing.T) {
	m := newM(memctrl.Mode{MemEncryption: true})
	if mean, maxLat := m.ReadMissLatency(); mean != 0 || maxLat != 0 {
		t.Fatalf("no misses yet, latency record reads mean %.1f max %d", mean, maxLat)
	}
	co := m.Core(0)
	for i := 0; i < 100; i++ {
		co.Read(addr.Phys(0x300000+i*4096), []byte{0})
	}
	if m.missN < 100 {
		t.Fatalf("miss-latency record saw %d misses", m.missN)
	}
	if mean, _ := m.ReadMissLatency(); mean < float64(config.Default().PCM.ReadLatency) {
		t.Fatalf("mean miss latency %.1f below raw array latency", mean)
	}
}
