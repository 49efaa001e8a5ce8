package memctrl

import (
	"math/rand"
	"testing"

	"fsencr/internal/addr"
	"fsencr/internal/aesctr"
	"fsencr/internal/audit"
	"fsencr/internal/config"
)

// TestWrappedPageWriteIsAudited writes one DF page often enough to wrap its
// minor counters once. The page write that finds a counter at the boundary
// goes line by line (the re-encryption must land at the wrapping line's
// turn), and it must still leave exactly one write_page audit record like
// every other page write: an audit trail that drops a store is not one.
func TestWrappedPageWriteIsAudited(t *testing.T) {
	const writes = config.MinorCounterMax + 3
	c := newMC(Mode{MemEncryption: true, FileEncryption: true})
	log := c.EnableAudit(0)
	pa := addr.Phys(0x100000).WithDF()
	now := c.InstallKey(0, 1, 1, fileKey(2))
	now = c.TagPage(now, pa, 1, 1)
	var page aesctr.Page
	for i := 0; i < writes; i++ {
		page[0] = byte(i)
		now = c.WritePage(now, pa, &page) + 1000
	}
	if m, f := c.Stats().Get("mc.mem_reencryptions"), c.Stats().Get("mc.file_reencryptions"); m != 1 || f != 1 {
		t.Fatalf("re-encryptions mem/file = %d/%d, want 1/1: the sweep did not wrap exactly once", m, f)
	}
	got := 0
	for _, r := range log.Records() {
		if r.Op == audit.OpWritePage {
			if r.Page != pa.PageNum() || r.Group != 1 || r.File != 1 {
				t.Errorf("write_page record names page %d group %d file %d", r.Page, r.Group, r.File)
			}
			got++
		}
	}
	if got != writes {
		t.Fatalf("%d page writes left %d write_page audit records", writes, got)
	}
	if err := log.Verify(); err != nil {
		t.Fatalf("audit chain: %v", err)
	}
}

// padID names one one-time pad: the key it is generated under and every IV
// field. key is 0 for the memory key and a per-file-key serial otherwise.
type padID struct {
	domain, page, line, minor uint8
	key                       uint32
	major                     uint64
}

// TestNoPadReuse is the counter-mode security invariant as a property: no
// (domain, key, page, line, major, minor) ever encrypts data twice — across
// minor wraps and the page re-encryptions they force, file-key rotation,
// shred-and-reuse of a page by a new file, and crash recovery. A seeded mix
// of line and page writes runs over two DF pages and one plain page until
// every page's major counter has advanced at least twice on both counter
// sides. After each store the pads now in use are read back from the
// counter blocks — the IV a store used is the post-store counter state; for
// the written lines, or for every line of the page when the store
// re-encrypted it — and a repeat fails the test with its seed and step.
func TestNoPadReuse(t *testing.T) {
	const (
		seed  = 7
		steps = 4000
		group = uint32(5)
	)
	c := newMC(Mode{MemEncryption: true, FileEncryption: true})
	rng := rand.New(rand.NewSource(seed))
	pages := []addr.Phys{addr.Phys(0x200000).WithDF(), addr.Phys(0x201000).WithDF(), addr.Phys(0x202000)}
	// Per DF page: the owning file's ID and the serial of its current key.
	// Inode numbers are never reused and every key is fresh, as in the kernel.
	fileOf, keyOf := []uint16{0, 0}, []uint32{0, 0}
	nextFile, nextKey := uint16(0), uint32(0)
	keyBytes := func(id uint32) aesctr.Key { return aesctr.Key{byte(id), byte(id >> 8), 0xA5} }
	now := config.Cycle(0)
	createOn := func(i int) {
		nextFile++
		nextKey++
		fileOf[i], keyOf[i] = nextFile, nextKey
		now = c.InstallKey(now, group, nextFile, keyBytes(nextKey))
		now = c.TagPage(now, pages[i], group, nextFile)
	}
	createOn(0)
	createOn(1)

	seen := make(map[padID]int) // pad -> step that used it
	step := 0
	use := func(id padID) {
		if prev, dup := seen[id]; dup {
			t.Fatalf("seed %d step %d: pad %+v already encrypted data at step %d", seed, step, id, prev)
		}
		seen[id] = step
	}
	// useFile notes the file pads lines lo..hi-1 of DF page i are now under.
	useFile := func(i, lo, hi int) {
		f := c.ctr[fileSlot(pages[i].PageNum())]
		for li := lo; li < hi; li++ {
			use(padID{domain: aesctr.DomainFile, page: uint8(i), line: uint8(li), minor: f.Minor[li], key: keyOf[i], major: f.Major})
		}
	}
	// store runs one store to lines li0..li0+n-1 of page i and notes the pads
	// they are encrypted under afterwards; a side whose major moved
	// re-encrypted the whole page.
	store := func(i, li0, n int, write func()) {
		pn := pages[i].PageNum()
		memMajor, fileMajor := c.getCtr(memSlot(pn)).Major, c.getCtr(fileSlot(pn)).Major
		write()
		m := c.ctr[memSlot(pn)]
		lo, hi := li0, li0+n
		if m.Major != memMajor {
			lo, hi = 0, config.LinesPerPage
		}
		for li := lo; li < hi; li++ {
			use(padID{domain: aesctr.DomainMemory, page: uint8(i), line: uint8(li), minor: m.Minor[li], major: m.Major})
		}
		if pages[i].IsDF() {
			if c.ctr[fileSlot(pn)].Major != fileMajor {
				li0, n = 0, config.LinesPerPage
			}
			useFile(i, li0, li0+n)
		}
	}

	var fileWraps [2]int
	var line aesctr.Line
	var page aesctr.Page
	for step = 1; step <= steps; step++ {
		i := rng.Intn(len(pages))
		switch {
		case step%500 == 0:
			c.Crash(step%1000 == 0)
			if err := c.Recover(); err != nil {
				t.Fatalf("seed %d step %d: %v", seed, step, err)
			}
			if err := c.VerifyRecovery(); err != nil {
				t.Fatalf("seed %d step %d: %v", seed, step, err)
			}
		case step == 1300 || step == 2900: // rotate the key of page 0's, then page 1's file
			i = step / 2000
			nextKey++
			now = c.RotateFileKey(now, pages[i], group, fileOf[i], keyBytes(keyOf[i]), keyBytes(nextKey))
			now = c.InstallKey(now, group, fileOf[i], keyBytes(nextKey))
			keyOf[i] = nextKey
			useFile(i, 0, config.LinesPerPage) // counters reset under the new key
		case step == 1700 || step == 3300: // delete page 1's, then page 0's file; a new file takes the page
			i = 1 - step/2000
			now = c.RemoveKey(now, group, fileOf[i])
			now = c.ShredPage(now, pages[i])
			createOn(i)
		case rng.Intn(5) == 0:
			li := rng.Intn(config.LinesPerPage)
			rng.Read(line[:])
			store(i, li, 1, func() { now = c.WriteLine(now, pages[i]+addr.Phys(li*config.LineSize), line) + 100 })
		default:
			rng.Read(page[:])
			store(i, 0, config.LinesPerPage, func() { now = c.WritePage(now, pages[i], &page) + 1000 })
		}
		for i := range fileWraps {
			if maj := int(c.getCtr(fileSlot(pages[i].PageNum())).Major); maj > fileWraps[i] {
				fileWraps[i] = maj
			}
		}
	}
	for i, pa := range pages {
		if maj := c.ctr[memSlot(pa.PageNum())].Major; maj < 2 {
			t.Errorf("page %d: memory major %d, the run did not wrap it twice", i, maj)
		}
	}
	if fileWraps[0] < 2 || fileWraps[1] < 2 {
		t.Errorf("file majors peaked at %v, the run did not wrap each twice under one key", fileWraps)
	}
	t.Logf("%d distinct pads over %d steps, %d file keys", len(seen), steps, nextKey)
}
