package machine

import (
	"testing"
	"testing/quick"

	"fsencr/internal/addr"
	"fsencr/internal/aesctr"
	"fsencr/internal/config"
	"fsencr/internal/memctrl"
)

func newM(mode memctrl.Mode) *Machine {
	return New(config.Default(), mode)
}

func TestReadYourWrite(t *testing.T) {
	m := newM(memctrl.Mode{MemEncryption: true})
	co := m.Core(0)
	data := []byte("hello, persistent world!")
	co.Write(0x1000, data)
	got := make([]byte, len(data))
	co.Read(0x1000, got)
	if string(got) != string(data) {
		t.Fatalf("got %q", got)
	}
}

func TestUnalignedCrossLineAccess(t *testing.T) {
	m := newM(memctrl.Mode{})
	co := m.Core(0)
	data := make([]byte, 200)
	for i := range data {
		data[i] = byte(i)
	}
	co.Write(0x1030, data) // crosses 4 lines, unaligned start
	got := make([]byte, 200)
	co.Read(0x1030, got)
	for i := range got {
		if got[i] != byte(i) {
			t.Fatalf("byte %d = %d", i, got[i])
		}
	}
}

func TestDataSurvivesCacheEviction(t *testing.T) {
	m := newM(memctrl.Mode{MemEncryption: true})
	co := m.Core(0)
	co.Write(0x2000, []byte{0xAB})
	// Thrash far more lines than the whole hierarchy holds.
	buf := []byte{0}
	spanLines := (config.Default().Processor.L3Size / config.LineSize) * 4
	for i := 0; i < spanLines; i++ {
		co.Read(addr.Phys(0x100000+i*config.LineSize), buf)
	}
	got := []byte{0}
	co.Read(0x2000, got)
	if got[0] != 0xAB {
		t.Fatal("dirty line lost through eviction chain")
	}
	if m.Stats().Get("machine.l3_dirty_evictions") == 0 {
		t.Fatal("no dirty evictions recorded despite thrashing")
	}
}

func TestFlushWritesThrough(t *testing.T) {
	m := newM(memctrl.Mode{})
	co := m.Core(0)
	co.Write(0x3000, []byte{0x77})
	if m.MC.PCM.Writes() != 0 {
		t.Fatal("write reached NVM before flush")
	}
	co.Flush(0x3000)
	co.Fence()
	if m.MC.PCM.Writes() == 0 {
		t.Fatal("flush did not reach NVM")
	}
	// CLWB retains the line: next read must still hit.
	h := co.l1.Hits
	co.Read(0x3000, []byte{0})
	if co.l1.Hits == h {
		t.Fatal("flushed line was invalidated (CLFLUSH semantics, want CLWB)")
	}
}

func TestFenceWaitsForFlush(t *testing.T) {
	m := newM(memctrl.Mode{})
	co := m.Core(0)
	co.Write(0x4000, []byte{1})
	before := co.Now
	co.Flush(0x4000)
	co.Fence()
	if co.Now <= before {
		t.Fatal("fence cost nothing after a flush")
	}
}

func TestFlushCleanLineCheap(t *testing.T) {
	m := newM(memctrl.Mode{})
	co := m.Core(0)
	co.Read(0x5000, []byte{0})
	w := m.MC.PCM.Writes()
	co.Flush(0x5000)
	if m.MC.PCM.Writes() != w {
		t.Fatal("flushing a clean line wrote to NVM")
	}
}

func TestCrashDropsDirtyData(t *testing.T) {
	m := newM(memctrl.Mode{MemEncryption: true})
	co := m.Core(0)
	co.Write(0x6000, []byte{0xEE}) // never flushed
	co.Write(0x6040, []byte{0xDD})
	co.Flush(0x6040)
	co.Fence()
	m.Crash(false)
	if err := m.Recover(); err != nil {
		t.Fatalf("recover: %v", err)
	}
	got := []byte{0}
	co.Read(0x6040, got)
	if got[0] != 0xDD {
		t.Fatal("flushed data lost in crash")
	}
	co.Read(0x6000, got)
	if got[0] == 0xEE {
		t.Fatal("unflushed data survived crash (page cache ghost)")
	}
}

func TestMultiCoreCoherence(t *testing.T) {
	m := newM(memctrl.Mode{MemEncryption: true})
	a, b := m.Core(0), m.Core(1)
	a.Write(0x7000, []byte{0x11})
	got := []byte{0}
	b.Read(0x7000, got)
	if got[0] != 0x11 {
		t.Fatal("core 1 did not observe core 0's store")
	}
	b.Write(0x7000, []byte{0x22})
	a.Read(0x7000, got)
	if got[0] != 0x22 {
		t.Fatal("core 0 did not observe core 1's store")
	}
}

func TestTimingHierarchy(t *testing.T) {
	m := newM(memctrl.Mode{})
	co := m.Core(0)
	buf := []byte{0}
	start := co.Now
	co.Read(0x8000, buf) // full miss
	missLat := co.Now - start
	start = co.Now
	co.Read(0x8000, buf) // L1 hit
	hitLat := co.Now - start
	if hitLat >= missLat {
		t.Fatalf("L1 hit (%d) not faster than miss (%d)", hitLat, missLat)
	}
	if hitLat != config.Default().Processor.L1Latency {
		t.Fatalf("L1 hit latency = %d", hitLat)
	}
}

func TestWritebackAll(t *testing.T) {
	m := newM(memctrl.Mode{})
	co := m.Core(0)
	co.Write(0x9000, []byte{5})
	m.WritebackAll()
	if m.MC.PCM.Writes() == 0 {
		t.Fatal("WritebackAll wrote nothing")
	}
	m.Crash(false)
	got := []byte{0}
	co.Read(0x9000, got)
	if got[0] != 5 {
		t.Fatal("WritebackAll data lost after crash")
	}
}

func TestNTWriteAndNCRead(t *testing.T) {
	m := newM(memctrl.Mode{MemEncryption: true})
	co := m.Core(0)
	var page aesctr.Page
	for i := range page {
		page[i] = byte(i ^ 0x3C)
	}
	co.WritePageNT(0xA000, &page)
	co.Fence()
	got := make([]byte, len(page))
	co.ReadNC(0xA000, got)
	for i := range got {
		if got[i] != page[i] {
			t.Fatalf("NT/NC mismatch at %d", i)
		}
	}
	// NT writes bypass caches: a normal read must miss.
	h := co.l1.Hits
	co.Read(0xA000, []byte{0})
	if co.l1.Hits != h {
		t.Fatal("NT write polluted the cache")
	}
}

func TestNCReadSeesDirtyCachedLine(t *testing.T) {
	m := newM(memctrl.Mode{})
	co := m.Core(0)
	co.Write(0xB000, []byte{0x42}) // dirty in cache, not in NVM
	got := make([]byte, config.LineSize)
	co.ReadNC(0xB000, got)
	if got[0] != 0x42 {
		t.Fatal("ReadNC missed dirty cached data")
	}
}

func TestSyncCores(t *testing.T) {
	m := newM(memctrl.Mode{})
	m.Core(0).Compute(100)
	m.Core(1).Compute(500)
	m.SyncCores()
	if m.Core(0).Now != 500 || m.MaxCoreTime() != 500 {
		t.Fatal("SyncCores did not align clocks")
	}
}

func TestPropertyReadYourWriteRandom(t *testing.T) {
	m := newM(memctrl.Mode{MemEncryption: true})
	co := m.Core(0)
	f := func(off uint32, val byte, ln uint8) bool {
		n := int(ln%32) + 1
		pa := addr.Phys(off % (1 << 24))
		data := make([]byte, n)
		for i := range data {
			data[i] = val + byte(i)
		}
		co.Write(pa, data)
		got := make([]byte, n)
		co.Read(pa, got)
		for i := range got {
			if got[i] != data[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// TestIdleCoresBuildNoCaches: traffic on core 0 alone, enough to make the
// L3 evict and back-invalidate every core's private caches, builds core 0's
// L1 and L2 and no other core's.
func TestIdleCoresBuildNoCaches(t *testing.T) {
	cfg := config.Default()
	cfg.Processor.L3Size = 256 << 10
	m := New(cfg, memctrl.Mode{MemEncryption: true})
	co := m.Core(0)
	buf := make([]byte, config.LineSize)
	for la := addr.Phys(0); la < 1<<20; la += config.LineSize {
		co.Write(la, buf)
	}
	if m.Stats().Get("machine.l3_dirty_evictions") == 0 {
		t.Fatal("the traffic evicted nothing from the L3")
	}
	for i := 0; i < m.Cores(); i++ {
		c := m.Core(i)
		if c.l1.Filled() != (i == 0) || c.l2.Filled() != (i == 0) {
			t.Errorf("core %d: L1 built %v, L2 built %v; want %v", i, c.l1.Filled(), c.l2.Filled(), i == 0)
		}
	}
}
