package memctrl

import (
	"testing"
	"testing/quick"

	"fsencr/internal/addr"
	"fsencr/internal/aesctr"
	"fsencr/internal/config"
	"fsencr/internal/stats"
	"fsencr/internal/telemetry"
)

func newMC(mode Mode) *Controller {
	return New(config.Default(), mode, stats.NewSet())
}

func fileKey(b byte) aesctr.Key {
	var k aesctr.Key
	for i := range k {
		k[i] = b ^ 0x5A
	}
	return k
}

func lineOf(b byte) aesctr.Line {
	var l aesctr.Line
	for i := range l {
		l[i] = b + byte(i)
	}
	return l
}

func TestPlainModeRoundtrip(t *testing.T) {
	c := newMC(Mode{})
	pa := addr.Phys(0x10000)
	c.WriteLine(0, pa, lineOf(1))
	got, _ := c.ReadLine(1000, pa)
	if got != lineOf(1) {
		t.Fatal("plain roundtrip failed")
	}
	// Plain mode stores plaintext in NVM.
	if c.RawLine(pa) != lineOf(1) {
		t.Fatal("plain mode encrypted data")
	}
}

func TestMemEncryptionRoundtripAndCiphertext(t *testing.T) {
	c := newMC(Mode{MemEncryption: true})
	pa := addr.Phys(0x10000)
	c.WriteLine(0, pa, lineOf(2))
	got, _ := c.ReadLine(1000, pa)
	if got != lineOf(2) {
		t.Fatal("encrypted roundtrip failed")
	}
	if c.RawLine(pa) == lineOf(2) {
		t.Fatal("NVM holds plaintext under memory encryption")
	}
}

func TestFileLineDualEncryption(t *testing.T) {
	c := newMC(Mode{MemEncryption: true, FileEncryption: true})
	pa := addr.Phys(0x20000).WithDF()
	c.InstallKey(0, 7, 9, fileKey(1))
	c.TagPage(0, pa, 7, 9)
	c.WriteLine(0, pa, lineOf(3))
	got, _ := c.ReadLine(1000, pa)
	if got != lineOf(3) {
		t.Fatal("file roundtrip failed")
	}
	// Stripping only the memory OTP must NOT reveal the plaintext: the
	// line is still wrapped in the file OTP (System C protection).
	if c.DecryptWithMemoryKeyOnly(pa) == lineOf(3) {
		t.Fatal("memory key alone decrypted a file line")
	}
	// A non-DF line, in contrast, is fully exposed by the memory key.
	npa := addr.Phys(0x30000)
	c.WriteLine(0, npa, lineOf(4))
	if c.DecryptWithMemoryKeyOnly(npa) != lineOf(4) {
		t.Fatal("memory key failed to decrypt a non-file line")
	}
}

func TestCounterAdvancesPerWrite(t *testing.T) {
	c := newMC(Mode{MemEncryption: true})
	pa := addr.Phys(0x40000)
	c.WriteLine(0, pa, lineOf(5))
	ct1 := c.RawLine(pa)
	c.WriteLine(0, pa, lineOf(5))
	ct2 := c.RawLine(pa)
	if ct1 == ct2 {
		t.Fatal("same plaintext re-encrypted to same ciphertext (counter not bumped)")
	}
	got, _ := c.ReadLine(1000, pa)
	if got != lineOf(5) {
		t.Fatal("roundtrip after rewrite failed")
	}
}

func TestMinorOverflowReencryptsPage(t *testing.T) {
	c := newMC(Mode{MemEncryption: true})
	base := addr.Phys(0x50000)
	// Put data on two lines of the page.
	c.WriteLine(0, base, lineOf(1))
	c.WriteLine(0, base+64, lineOf(2))
	// Overflow line 0's minor counter.
	for i := 0; i <= config.MinorCounterMax+2; i++ {
		c.WriteLine(0, base, lineOf(byte(i)))
	}
	if c.Stats().Get("mc.mem_reencryptions") == 0 {
		t.Fatal("no re-encryption on minor overflow")
	}
	// Both lines still decrypt correctly under the new major counter.
	got, _ := c.ReadLine(1000, base+64)
	if got != lineOf(2) {
		t.Fatal("sibling line corrupted by page re-encryption")
	}
	got, _ = c.ReadLine(1000, base)
	if got != lineOf(byte(config.MinorCounterMax+2)) {
		t.Fatal("overflowing line corrupted")
	}
}

func TestFileMinorOverflow(t *testing.T) {
	c := newMC(Mode{MemEncryption: true, FileEncryption: true})
	pa := addr.Phys(0x60000).WithDF()
	c.InstallKey(0, 1, 1, fileKey(2))
	c.TagPage(0, pa, 1, 1)
	c.WriteLine(0, pa+128, lineOf(7))
	for i := 0; i <= config.MinorCounterMax+2; i++ {
		c.WriteLine(0, pa, lineOf(byte(i)))
	}
	if c.Stats().Get("mc.file_reencryptions") == 0 {
		t.Fatal("no file-side re-encryption on overflow")
	}
	got, _ := c.ReadLine(1000, pa+128)
	if got != lineOf(7) {
		t.Fatal("sibling file line corrupted by file-side re-encryption")
	}
}

// TestFileMinorWrapKeepsWrappingWrite stops on the very write that wraps the
// file-side minor counter (the 128th to one line or page): that write's
// memory pad is already built when the file-side re-encryption runs, so the
// re-encryption must not share its scratch. One more write would mask a
// clobbered pad, which is why TestFileMinorOverflow never saw it.
func TestFileMinorWrapKeepsWrappingWrite(t *testing.T) {
	const writes = config.MinorCounterMax + 1
	t.Run("WriteLine", func(t *testing.T) {
		c := newMC(Mode{MemEncryption: true, FileEncryption: true})
		pa := addr.Phys(0x60000).WithDF()
		c.InstallKey(0, 1, 1, fileKey(2))
		c.TagPage(0, pa, 1, 1)
		for i := 1; i <= writes; i++ {
			c.WriteLine(0, pa+64, lineOf(byte(i)))
		}
		if c.Stats().Get("mc.file_reencryptions") != 1 {
			t.Fatalf("file re-encryptions = %d, want 1", c.Stats().Get("mc.file_reencryptions"))
		}
		if got, _ := c.ReadLine(1000, pa+64); got != lineOf(byte(writes)) {
			t.Fatal("the write that wrapped the file minor counter reads back wrong")
		}
	})
	t.Run("WritePage", func(t *testing.T) {
		c := newMC(Mode{MemEncryption: true, FileEncryption: true})
		pa := addr.Phys(0x100000).WithDF()
		c.InstallKey(0, 1, 1, fileKey(2))
		c.TagPage(0, pa, 1, 1)
		var want, got aesctr.Page
		for i := 1; i <= writes; i++ {
			for j := range want {
				want[j] = byte(i + j)
			}
			c.WritePage(0, pa, &want)
		}
		c.ReadPageInto(1000, pa, &got)
		if got != want {
			t.Fatal("the page write that wrapped the file minor counters reads back wrong")
		}
	})
}

func TestKeyUnavailableYieldsGarbage(t *testing.T) {
	c := newMC(Mode{MemEncryption: true, FileEncryption: true})
	pa := addr.Phys(0x70000).WithDF()
	c.InstallKey(0, 3, 3, fileKey(3))
	c.TagPage(0, pa, 3, 3)
	c.WriteLine(0, pa, lineOf(8))
	c.RemoveKey(0, 3, 3)
	got, _ := c.ReadLine(1000, pa)
	if got == lineOf(8) {
		t.Fatal("file line decrypted without its key")
	}
	if c.Stats().Get("mc.key_unavailable") == 0 {
		t.Fatal("missing-key stat not counted")
	}
}

func TestLockDisablesFileDatapath(t *testing.T) {
	c := newMC(Mode{MemEncryption: true, FileEncryption: true})
	pa := addr.Phys(0x80000).WithDF()
	c.InstallKey(0, 4, 4, fileKey(4))
	c.TagPage(0, pa, 4, 4)
	c.WriteLine(0, pa, lineOf(9))
	c.Lock()
	if !c.Locked() {
		t.Fatal("Lock not reflected")
	}
	got, _ := c.ReadLine(1000, pa)
	if got == lineOf(9) {
		t.Fatal("locked controller still decrypted file data")
	}
	c.Unlock()
	got, _ = c.ReadLine(2000, pa)
	if got != lineOf(9) {
		t.Fatal("unlock did not restore decryption")
	}
}

func TestVerifyKey(t *testing.T) {
	c := newMC(Mode{MemEncryption: true, FileEncryption: true})
	c.InstallKey(0, 5, 5, fileKey(5))
	if !c.VerifyKey(5, 5, fileKey(5)) {
		t.Fatal("correct key rejected")
	}
	if c.VerifyKey(5, 5, fileKey(6)) {
		t.Fatal("wrong key accepted")
	}
	if c.VerifyKey(5, 99, fileKey(5)) {
		t.Fatal("unknown file verified")
	}
}

func TestOTTEvictionToRegionAndRefill(t *testing.T) {
	cfg := config.Default()
	cfg.Security.OTTBanks = 1
	cfg.Security.OTTEntriesPerBank = 4
	c := New(cfg, Mode{MemEncryption: true, FileEncryption: true}, stats.NewSet())
	// Install 6 keys into a 4-entry OTT: two get sealed into the region.
	for i := uint16(1); i <= 6; i++ {
		c.InstallKey(0, 1, i, fileKey(byte(i)))
	}
	if c.OTT().Len() != 4 {
		t.Fatalf("OTT len = %d", c.OTT().Len())
	}
	// §III-H option 1: every install is logged to the sealed region, so
	// all six keys live there regardless of on-chip residency.
	if c.OTTRegion().Len() != 6 {
		t.Fatalf("region len = %d", c.OTTRegion().Len())
	}
	// All six keys remain resolvable (region refill path).
	for i := uint16(1); i <= 6; i++ {
		if !c.VerifyKey(1, i, fileKey(byte(i))) {
			t.Fatalf("key %d lost after eviction", i)
		}
	}
	// Data written under an evicted key still decrypts.
	pa := addr.Phys(0x90000).WithDF()
	c.TagPage(0, pa, 1, 1)
	c.WriteLine(0, pa, lineOf(11))
	got, _ := c.ReadLine(1000, pa)
	if got != lineOf(11) {
		t.Fatal("roundtrip under evicted key failed")
	}
}

func TestShredPage(t *testing.T) {
	c := newMC(Mode{MemEncryption: true, FileEncryption: true})
	pa := addr.Phys(0xA0000).WithDF()
	c.InstallKey(0, 6, 6, fileKey(6))
	c.TagPage(0, pa, 6, 6)
	c.WriteLine(0, pa, lineOf(12))
	c.ShredPage(0, pa)
	// Even with the key still installed, the shredded data must be
	// unintelligible (counters gone).
	got, _ := c.ReadLine(1000, pa)
	if got == lineOf(12) {
		t.Fatal("shredded data still readable")
	}
}

func TestTamperDetection(t *testing.T) {
	c := newMC(Mode{MemEncryption: true, FileEncryption: true})
	pa := addr.Phys(0xB0000).WithDF()
	c.InstallKey(0, 7, 7, fileKey(7))
	c.TagPage(0, pa, 7, 7)
	c.WriteLine(0, pa, lineOf(13))
	if c.IntegrityViolations() != 0 {
		t.Fatal("violations before tampering")
	}
	c.FlipFECBBit(pa.PageNum(), minor0LSB)
	c.ReadLine(1000, pa)
	if c.IntegrityViolations() == 0 {
		t.Fatal("FECB tampering not detected")
	}
	c2 := newMC(Mode{MemEncryption: true})
	pb := addr.Phys(0xC0000)
	c2.WriteLine(0, pb, lineOf(14))
	c2.FlipMECBBit(pb.PageNum(), minor0LSB)
	c2.ReadLine(1000, pb)
	if c2.IntegrityViolations() == 0 {
		t.Fatal("MECB tampering not detected")
	}
}

func TestWriteQueueBackpressure(t *testing.T) {
	c := newMC(Mode{})
	// Hammer one bank: acceptance times must eventually lag arrival.
	var last config.Cycle
	for i := 0; i < 1000; i++ {
		last = c.WriteLine(0, addr.Phys(0x100000), lineOf(byte(i)))
	}
	if last == 1 {
		t.Fatal("no backpressure after 1000 same-cycle writes")
	}
	if c.Stats().Get("mc.write_queue_stalls") == 0 {
		t.Fatal("no write-queue stalls recorded")
	}
}

func TestReadTimingCounterMissVsHit(t *testing.T) {
	c := newMC(Mode{MemEncryption: true})
	pa := addr.Phys(0x110000)
	c.WriteLine(0, pa, lineOf(1))
	// First read at a fresh page: counters were cached by the write.
	_, d1 := c.ReadLine(10000, pa)
	hitLat := d1 - 10000
	// Evict metadata, then read: counter fetch exposed.
	c.MetadataCache().Clear()
	c.PCM.ResetTiming()
	_, d2 := c.ReadLine(20000, pa)
	missLat := d2 - 20000
	if missLat <= hitLat {
		t.Fatalf("metadata miss (%d) not slower than hit (%d)", missLat, hitLat)
	}
}

func TestPropertyRoundtripManyLines(t *testing.T) {
	c := newMC(Mode{MemEncryption: true, FileEncryption: true})
	c.InstallKey(0, 2, 2, fileKey(9))
	f := func(page uint16, li uint8, val byte, df bool) bool {
		pa := addr.Phys(uint64(page)*config.PageSize + uint64(li%config.LinesPerPage)*config.LineSize)
		if df {
			pa = pa.WithDF()
			c.TagPage(0, pa, 2, 2)
		}
		c.WriteLine(0, pa, lineOf(val))
		got, _ := c.ReadLine(0, pa)
		return got == lineOf(val)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
	if c.IntegrityViolations() != 0 {
		t.Fatal("violations during property run")
	}
}

func TestPartitionedMetadataCache(t *testing.T) {
	cfg := config.Default()
	cfg.Security.PartitionMetadataCache = true
	c := New(cfg, Mode{MemEncryption: true, FileEncryption: true}, stats.NewSet())
	pa := addr.Phys(0x120000).WithDF()
	c.InstallKey(0, 8, 8, fileKey(8))
	c.TagPage(0, pa, 8, 8)
	c.WriteLine(0, pa, lineOf(21))
	got, _ := c.ReadLine(0, pa)
	if got != lineOf(21) {
		t.Fatal("roundtrip broken under partitioned metadata cache")
	}
	// MECB and FECB land in different partitions.
	mecbCache := c.mcacheFor(slotAddr(memSlot(pa.PageNum())))
	fecbCache := c.mcacheFor(slotAddr(fileSlot(pa.PageNum())))
	if mecbCache == fecbCache {
		t.Fatal("MECB and FECB share a partition")
	}
	if !mecbCache.Contains(slotAddr(memSlot(pa.PageNum()))) {
		t.Fatal("MECB missing from its partition")
	}
	if !fecbCache.Contains(slotAddr(fileSlot(pa.PageNum()))) {
		t.Fatal("FECB missing from its partition")
	}
	// Crash/recover still works with partitions.
	c.Crash(true)
	if err := c.Recover(); err != nil {
		t.Fatalf("recover with partitions: %v", err)
	}
	got, _ = c.ReadLine(0, pa)
	if got != lineOf(21) {
		t.Fatal("data lost across crash with partitioned cache")
	}
	if c.MetaHitRate() <= 0 {
		t.Fatal("aggregate hit rate not reported")
	}
}

func TestUnpartitionedCacheAliases(t *testing.T) {
	c := newMC(Mode{MemEncryption: true})
	if c.mcacheFor(slotAddr(memSlot(1))) != c.mcacheFor(slotAddr(fileSlot(1))) {
		t.Fatal("shared mode did not alias partitions")
	}
	if c.mcacheFor(mtNodeAddr(c.mt.PathNodes(0)[0])) != c.MetadataCache() {
		t.Fatal("tree nodes not in the shared cache")
	}
}

func TestMerkleWriteBackTelemetry(t *testing.T) {
	c := newMC(Mode{MemEncryption: true})
	reg := telemetry.New()
	c.Instrument(reg)
	// 64 sequential line writes to one page: one counter-block leaf updated
	// 64 times, zero external observations in between.
	base := addr.Phys(0x900000)
	for li := 0; li < config.LinesPerPage; li++ {
		c.WriteLine(0, base+addr.Phys(li*config.LineSize), lineOf(byte(li)))
	}
	if c.mt.Dirty() == 0 {
		t.Fatal("no pending lazy updates after a write burst")
	}
	root := c.MerkleRoot() // external observation point: must flush
	if c.mt.Dirty() != 0 {
		t.Fatal("MerkleRoot left pending updates")
	}
	snap := reg.Snapshot()
	// Write-back dedup: ~65 leaf updates (first touch + 64 bumps) collapse
	// into at most two flushes (the compulsory-miss Verify and the Root
	// observation), instead of one path recompute per write.
	if ups := snap.Counters["merkle.updates"]; ups < 64 {
		t.Fatalf("merkle.updates = %d, want >= 64", ups)
	}
	flushes := snap.Counters["merkle.flushes"]
	if flushes == 0 || flushes > 2 {
		t.Fatalf("merkle.flushes = %d, want 1..2 (write-back dedup)", flushes)
	}
	if h := snap.Histograms["merkle.dirty_leaves_per_flush"]; h == nil || h.Count != flushes {
		t.Fatalf("dirty_leaves_per_flush = %+v, want %d observations", h, flushes)
	}
	// The lazily maintained root must match a wholesale rebuild from the
	// same counters (the eager tree's value, by TestRebuildMatchesIncremental).
	c.rebuildTreeFromCounters()
	if c.MerkleRoot() != root {
		t.Fatal("lazy root differs from rebuilt root")
	}
}

// TestReaderEngineCacheBounded: a Reader that has decrypted under more file
// keys than maxEngines keeps no more engines than that, and an engine
// rebuilt after the cache started over still makes the same pads.
func TestReaderEngineCacheBounded(t *testing.T) {
	r := newMC(Mode{MemEncryption: true, FileEncryption: true}).NewReader()
	var first aesctr.Page
	r.engineFor(fileKey(0)).OTPLinesInto(first[:], 7, 0, 1, new([config.LinesPerPage]uint8), aesctr.DomainFile)
	for i := 0; i < 300; i++ {
		var k aesctr.Key
		k[0], k[1] = byte(i), byte(i>>8)
		r.engineFor(k)
		if n := len(r.engines); n > maxEngines {
			t.Fatalf("after %d keys the cache holds %d engines, want <= %d", i+1, n, maxEngines)
		}
	}
	var again aesctr.Page
	r.engineFor(fileKey(0)).OTPLinesInto(again[:], 7, 0, 1, new([config.LinesPerPage]uint8), aesctr.DomainFile)
	if again != first {
		t.Fatal("a rebuilt engine made different pads")
	}
}
