package memctrl

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"testing"

	"fsencr/internal/addr"
	"fsencr/internal/aesctr"
	"fsencr/internal/config"
	"fsencr/internal/obsplane/journal"
	"fsencr/internal/stats"
	"fsencr/internal/telemetry"
)

// pageEquivPair builds two controllers sharing the same derived chip keys
// (same instance sequence number), so their ciphertext, Merkle roots, and
// OTT state are directly comparable.
func pageEquivPair(mode Mode) (lineC, pageC *Controller, lineJ, pageJ *journal.Journal) {
	seq := instanceSeq.Add(1)
	lineC = NewWithChipSeq(config.Default(), mode, stats.NewSet(), seq)
	pageC = NewWithChipSeq(config.Default(), mode, stats.NewSet(), seq)
	lineJ, pageJ = journal.New(0), journal.New(0)
	lineC.AttachJournal(lineJ)
	pageC.AttachJournal(pageJ)
	return
}

// writePageAsLines drives the line-granularity datapath with a page's
// worth of chained WriteLine calls — the reference the batched path must
// be state-equivalent to.
func writePageAsLines(c *Controller, now config.Cycle, base addr.Phys, page *aesctr.Page) config.Cycle {
	t := now
	var line aesctr.Line
	for li := 0; li < config.LinesPerPage; li++ {
		copy(line[:], page[li*config.LineSize:(li+1)*config.LineSize])
		t = c.WriteLine(t, base+addr.Phys(li*config.LineSize), line)
	}
	return t
}

func readPageAsLines(c *Controller, now config.Cycle, base addr.Phys, dst *aesctr.Page) config.Cycle {
	t := now
	for li := 0; li < config.LinesPerPage; li++ {
		line, done := c.ReadLine(now, base+addr.Phys(li*config.LineSize))
		copy(dst[li*config.LineSize:(li+1)*config.LineSize], line[:])
		if done > t {
			t = done
		}
	}
	return t
}

// journalKeys flattens a journal into a sorted multiset key ignoring
// Seq/Cycle: batching reorders and retimes events but must never change
// what is reported.
func journalKeys(j *journal.Journal) []string {
	evs := j.Events()
	keys := make([]string, 0, len(evs))
	for _, e := range evs {
		keys = append(keys, fmt.Sprintf("%s p%d g%d f%d %s", e.Type, e.Page, e.Group, e.File, e.Detail))
	}
	sort.Strings(keys)
	return keys
}

// comparePageState asserts every piece of functional and security state
// the two datapaths share is identical for the given pages. Timing state
// (write queue, bank busy-until) and traffic stats are deliberately out of
// scope: amortizing them is the batched path's purpose.
func comparePageState(t *testing.T, lineC, pageC *Controller, addrs []addr.Phys) {
	t.Helper()
	for _, base := range addrs {
		page := base.PageNum()
		for li := 0; li < config.LinesPerPage; li++ {
			la := base + addr.Phys(li*config.LineSize)
			if lineC.RawLine(la) != pageC.RawLine(la) {
				t.Fatalf("page %#x line %d: ciphertext differs between line and page datapaths", page, li)
			}
		}
		if m1, m2 := lineC.ctr[memSlot(page)], pageC.ctr[memSlot(page)]; (m1 == nil) != (m2 == nil) || (m1 != nil && *m1 != *m2) {
			t.Fatalf("page %#x: MECB differs: %+v vs %+v", page, m1, m2)
		}
		if f1, f2 := lineC.ctr[fileSlot(page)], pageC.ctr[fileSlot(page)]; (f1 == nil) != (f2 == nil) || (f1 != nil && *f1 != *f2) {
			t.Fatalf("page %#x: FECB differs: %+v vs %+v", page, f1, f2)
		}
		// A wrong dirty bit shows only at a later eviction, as a persist.
		for _, a := range []uint64{slotAddr(memSlot(page)), slotAddr(fileSlot(page))} {
			if lineC.metaCache == nil { // plain mode: no metadata
				break
			}
			if d1, d2 := lineC.mcacheFor(a).IsDirty(a), pageC.mcacheFor(a).IsDirty(a); d1 != d2 {
				t.Fatalf("page %#x: counter line %#x dirty %v in the metadata cache vs %v", page, a, d1, d2)
			}
		}
	}
	if !reflect.DeepEqual(lineC.persisted, pageC.persisted) {
		t.Fatal("persisted counter-block snapshots differ (Osiris stop-loss schedule diverged)")
	}
	if !reflect.DeepEqual(lineC.unpersisted, pageC.unpersisted) {
		t.Fatalf("unpersisted bump counts differ: %v vs %v", lineC.unpersisted, pageC.unpersisted)
	}
	if !reflect.DeepEqual(lineC.ecc, pageC.ecc) {
		t.Fatal("Osiris ECC tags differ")
	}
	if lineC.MerkleRoot() != pageC.MerkleRoot() {
		t.Fatal("Merkle roots differ")
	}
}

// pageEquivConfig describes one mode of the equivalence sweep.
type pageEquivConfig struct {
	name   string
	mode   Mode
	df     bool // address pages through the DF tunnel bit
	lock   bool // lock the datapath after setup (failed admin auth)
	delKey bool // remove the file key after tagging (deleted file)
	iters  int
}

// TestWritePageEquivalence is the batched datapath's ground-truth property
// test: across every protection mode, a randomized sweep of page writes
// and reads must leave the page-granularity controller byte- and
// state-identical to a controller driven by 64x line-granularity calls —
// same plaintext, same ciphertext, same counters, same persisted Osiris
// snapshots, same Merkle root, same journal.
func TestWritePageEquivalence(t *testing.T) {
	const (
		group = uint32(7)
		nPage = 32
	)
	cases := []pageEquivConfig{
		{name: "mem_only", mode: Mode{MemEncryption: true}, iters: 1000},
		{name: "mem_file", mode: Mode{MemEncryption: true, FileEncryption: true}, df: true, iters: 1000},
		{name: "locked", mode: Mode{MemEncryption: true, FileEncryption: true}, df: true, lock: true, iters: 250},
		{name: "deleted_key", mode: Mode{MemEncryption: true, FileEncryption: true}, df: true, delKey: true, iters: 250},
		{name: "plain", mode: Mode{}, iters: 250},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			lineC, pageC, lineJ, pageJ := pageEquivPair(tc.mode)
			rng := rand.New(rand.NewSource(42))

			addrs := make([]addr.Phys, nPage)
			for i := range addrs {
				pa := addr.Phys(0x400000 + i*config.PageSize)
				if tc.df {
					pa = pa.WithDF()
				}
				addrs[i] = pa
			}
			if tc.df {
				for i, pa := range addrs {
					file := uint16(i + 1)
					key := fileKey(byte(i + 1))
					for _, c := range []*Controller{lineC, pageC} {
						c.InstallKey(0, group, file, key)
						c.TagPage(0, pa, group, file)
					}
				}
			}
			if tc.lock {
				lineC.Lock()
				pageC.Lock()
			}
			if tc.delKey {
				for i := range addrs {
					lineC.RemoveKey(0, group, uint16(i+1))
					pageC.RemoveKey(0, group, uint16(i+1))
				}
			}

			var buf, got1, got2 aesctr.Page
			now := config.Cycle(1000)
			for it := 0; it < tc.iters; it++ {
				base := addrs[rng.Intn(nPage)]
				if rng.Intn(4) != 0 { // write-heavy mix
					for i := range buf {
						buf[i] = byte(rng.Intn(256))
					}
					writePageAsLines(lineC, now, base, &buf)
					pageC.WritePage(now, base, &buf)
				} else {
					readPageAsLines(lineC, now, base, &got1)
					pageC.ReadPageInto(now, base, &got2)
					if got1 != got2 {
						t.Fatalf("iter %d: page plaintext differs between datapaths", it)
					}
				}
				now += 500
			}
			comparePageState(t, lineC, pageC, addrs)
			k1, k2 := journalKeys(lineJ), journalKeys(pageJ)
			if !reflect.DeepEqual(k1, k2) {
				t.Fatalf("journal event multisets differ: %d line events vs %d page events", len(k1), len(k2))
			}
		})
	}
}

// TestWritePageOverflowEquivalence drives page writes through minor-counter
// overflows in every encrypting mode and checks that a page write wrapping a
// counter mid-run leaves the state 64 chained line writes leave. One page
// wraps all its minors together (128 full-page writes on a fresh page);
// on a staggered page, line writes first put one line at the boundary on
// the memory side and another on the file side. Then other pages are
// written until the metadata cache evicts the wrapped pages' counter lines
// — an eviction persists a line if and only if it is dirty — and the state
// is compared again.
func TestWritePageOverflowEquivalence(t *testing.T) {
	const (
		group    = uint32(7)
		memLine  = 40 // the staggered page's memory-side boundary
		fileLine = 20 // and its file-side one
		others   = 16 // per wrapped page, sharing its metadata-cache sets
	)
	cases := []pageEquivConfig{
		{name: "mem_only", mode: Mode{MemEncryption: true}},
		{name: "mem_file", mode: Mode{MemEncryption: true, FileEncryption: true}, df: true},
		{name: "locked", mode: Mode{MemEncryption: true, FileEncryption: true}, df: true, lock: true},
		{name: "deleted_key", mode: Mode{MemEncryption: true, FileEncryption: true}, df: true, delKey: true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			lineC, pageC, lineJ, pageJ := pageEquivPair(tc.mode)
			both := func(f func(c *Controller)) { f(lineC); f(pageC) }
			wrapped := []addr.Phys{0x800000, 0x801000}
			// Pages a set count of counter lines apart share the wrapped
			// pages' metadata-cache sets: a page has two counter lines.
			stride := addr.Phys(pageC.MetadataCache().Sets() / 2 * config.PageSize)
			var rest []addr.Phys
			for k := 1; k <= others; k++ {
				for _, pa := range wrapped {
					rest = append(rest, pa+addr.Phys(k)*stride)
				}
			}
			if tc.df {
				for i := range wrapped {
					wrapped[i] = wrapped[i].WithDF()
				}
				for i := range rest {
					rest[i] = rest[i].WithDF()
				}
				both(func(c *Controller) {
					c.InstallKey(0, group, 1, fileKey(1))
					for _, pa := range slices.Concat(wrapped, rest) {
						c.TagPage(0, pa, group, 1)
					}
				})
			}
			if tc.lock {
				both((*Controller).Lock)
			}
			if tc.delKey {
				both(func(c *Controller) { c.RemoveKey(0, group, 1) })
			}

			now := config.Cycle(0)
			var line aesctr.Line
			writeLine := func(pa addr.Phys, times int) {
				for i := 0; i < times; i++ {
					line[0] = byte(i)
					both(func(c *Controller) { c.WriteLine(now, pa, line) })
					now += 300
				}
			}
			var buf aesctr.Page
			writePage := func(pa addr.Phys, seed int) {
				for j := range buf {
					buf[j] = byte(seed + j)
				}
				writePageAsLines(lineC, now, pa, &buf)
				pageC.WritePage(now, pa, &buf)
				now += 1000
			}
			// The staggered page: its file-side line reaches the boundary on
			// both sides, a write without the DF bit wraps the memory side
			// alone, and the memory-side line then reaches it.
			stag := wrapped[1]
			writeLine(stag+fileLine*config.LineSize, config.MinorCounterMax)
			writeLine(stag.Raw()+fileLine*config.LineSize, 1)
			writeLine(stag.Raw()+memLine*config.LineSize, config.MinorCounterMax)
			// The fresh page's minors reach the boundary together; then each
			// page's next write wraps, and is its last before the evictions.
			for i := 0; i < config.MinorCounterMax; i++ {
				writePage(wrapped[0], i)
			}
			for _, pa := range wrapped {
				writePage(pa, 0)
			}
			// Memory side: the line writes' wrap, then one per page.
			wantFile := uint64(0)
			if tc.df && !tc.lock {
				wantFile = 2
			}
			if m, f := pageC.Stats().Get("mc.mem_reencryptions"), pageC.Stats().Get("mc.file_reencryptions"); m != 3 || f != wantFile {
				t.Fatalf("re-encryptions mem/file = %d/%d, want 3/%d", m, f, wantFile)
			}
			comparePageState(t, lineC, pageC, wrapped)

			// The counter lines the writes dirtied: the file side's only where
			// the file datapath is active.
			var lines []uint64
			for _, pa := range wrapped {
				lines = append(lines, slotAddr(memSlot(pa.PageNum())))
				if tc.df && !tc.lock {
					lines = append(lines, slotAddr(fileSlot(pa.PageNum())))
				}
			}
			cached := func() bool {
				for _, a := range lines {
					if lineC.mcacheFor(a).Contains(a) || pageC.mcacheFor(a).Contains(a) {
						return true
					}
				}
				return false
			}
			for i := 0; cached(); i++ {
				if i == len(rest) {
					t.Fatal("writing the other pages did not evict the wrapped pages' counter lines")
				}
				writePage(rest[i], i)
			}
			comparePageState(t, lineC, pageC, slices.Concat(wrapped, rest))
			if !reflect.DeepEqual(journalKeys(lineJ), journalKeys(pageJ)) {
				t.Fatal("journal event multisets differ across overflow")
			}
		})
	}
}

// TestPageOpsSimulatedTiming pins the batched datapath's simulated-time
// profile:
//
//   - A page read completes strictly faster than 64 line reads: the
//     counter fetch and key lookup are paid once and the 64 array reads
//     pipeline across the bank stripe.
//   - A page write's ADR accept (what an SFENCE waits on) is never later
//     than the chained line path's — both claim one persistence slot per
//     line.
//   - The background array drain stays close to the line path's. The
//     burst issues its stop-loss metadata write-throughs ahead of the
//     data burst on the shared bank instead of interleaved with it, which
//     costs a bounded amount of background bank occupancy that nobody
//     stalls on; it must never balloon past a quarter over the line path.
func TestPageOpsSimulatedTiming(t *testing.T) {
	lineC, pageC, _, _ := pageEquivPair(Mode{MemEncryption: true})
	base := addr.Phys(0xA00000)
	var buf aesctr.Page
	for i := range buf {
		buf[i] = byte(i * 3)
	}

	lineAccept := writePageAsLines(lineC, 0, base, &buf)
	pageAccept := pageC.WritePage(0, base, &buf)
	if pageAccept > lineAccept {
		t.Errorf("WritePage accepted at %d cycles, later than %d for 64 chained WriteLines", pageAccept, lineAccept)
	}
	maxDrain := func(c *Controller) config.Cycle {
		var m config.Cycle
		for _, d := range c.writeQueue {
			if d > m {
				m = d
			}
		}
		return m
	}
	lineDrain, pageDrain := maxDrain(lineC), maxDrain(pageC)
	if pageDrain > lineDrain+lineDrain/4 {
		t.Errorf("WritePage array drain %d cycles exceeds line-path drain %d by more than 25%%", pageDrain, lineDrain)
	}

	var got aesctr.Page
	lineRead := readPageAsLines(lineC, 1_000_000, base, &got) - 1_000_000
	pageRead := pageC.ReadPageInto(1_000_000, base, &got) - 1_000_000
	if pageRead >= lineRead {
		t.Errorf("ReadPage took %d cycles, not faster than %d for 64 chained ReadLines", pageRead, lineRead)
	}
}

// TestPageBatchCounts pins, exactly, the per-request work one steady-state
// page op does in FsEncr mode: metadata-cache lookups (mc.meta_hits +
// mc.meta_misses), OTT lookups (mc.ott_hits + mc.ott_misses) and Merkle leaf
// updates (merkle.updates). A page op pays each once per counter block or
// key where 64 line ops pay it 64 times, so a per-line counter fetch, key
// lookup or Merkle touch put back into the page loop multiplies a count here.
// TestPageGapGuard measures the same batching as host time.
func TestPageBatchCounts(t *testing.T) {
	for _, op := range []struct {
		name               string
		write              bool
		meta, ott, updates uint64
	}{
		{"ReadPageInto", false, 2, 1, 0},
		{"WritePage", true, 2, 1, 2},
	} {
		c, las := benchFsEncrController()
		reg := telemetry.New()
		c.Instrument(reg)
		st := c.Stats()
		count := func() (meta, ott, updates uint64) {
			return st.Get("mc.meta_hits") + st.Get("mc.meta_misses"), st.Get("mc.ott_hits") + st.Get("mc.ott_misses"),
				reg.Snapshot().Counters["merkle.updates"]
		}
		meta0, ott0, updates0 := count()
		// 64 ops a page: each page's minors stay below the wrap, whose
		// file-side re-encryption looks the key up once more.
		const pages, ops = 8, 8 * 64
		var buf aesctr.Page
		now := config.Cycle(0)
		for i := 0; i < ops; i++ {
			pa := las[(i%pages)*config.LinesPerPage]
			if op.write {
				c.WritePage(now, pa, &buf)
			} else {
				c.ReadPageInto(now, pa, &buf)
			}
			now += 200
		}
		meta, ott, updates := count()
		for _, n := range []struct {
			what      string
			got, want uint64
		}{
			{"metadata lookups", meta - meta0, op.meta},
			{"OTT lookups", ott - ott0, op.ott},
			{"Merkle leaf updates", updates - updates0, op.updates},
		} {
			if n.got != n.want*ops {
				t.Errorf("%s: %d %s in %d ops, want %d per op", op.name, n.got, n.what, ops, n.want)
			}
		}
	}
}
