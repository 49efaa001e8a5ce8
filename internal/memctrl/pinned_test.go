package memctrl

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math/rand"
	"sort"
	"testing"

	"fsencr/internal/addr"
	"fsencr/internal/aesctr"
	"fsencr/internal/config"
	"fsencr/internal/obsplane/journal"
	"fsencr/internal/stats"
	"fsencr/internal/telemetry"
)

// pinnedDigests are the per-mode digests TestDatapathCyclesPinned compares
// against: seq is the seeded line and page sequence with its forced line
// wraps, pageWrap a page write wrapping a minor counter on its own. Each was
// recorded by running
//
//	go test -run TestDatapathCyclesPinned -v ./internal/memctrl
//
// and copying the "digest" lines each subtest logs. seq was recorded on the
// code just before a wrapping page write became one run, whose digests of
// the two sequences together still matched those recorded at 52cf651, the
// last commit with separate line and page datapaths; pageWrap was re-pinned
// by that change (plain keeps its value: nothing wraps without memory
// encryption). Re-record the same way only with a change that means to
// alter the controller's timing model, and say so there.
var pinnedDigests = map[string]struct{ seq, pageWrap uint64 }{
	"mem_only":    {0x578c38de50d8cc65, 0x3ebf78e9dc7105e0},
	"mem_file":    {0xbc9e29982252c662, 0xfe38cbcc726beed3},
	"locked":      {0x642e57e29b2873bc, 0x35c4540ae7e40c51},
	"deleted_key": {0xdf9a3bdea8502a0e, 0x455251d4778c90d2},
	"plain":       {0xd44f8cf5fa610605, 0xa019fb16610d98fd},
}

// TestDatapathCyclesPinned pins the controller's simulated timing at
// tier-1, in each of TestWritePageEquivalence's five modes, as two
// digests. seq runs a fixed seeded sequence of about 2000 line and page
// reads and writes over DF and plain pages — with one key-unavailable page
// and a forced minor-counter wrap on each counter side by line writes;
// pageWrap runs page writes that wrap a minor counter mid-page. A digest is
// an FNV-64a over every completion and accept time the controller
// returned, the final counter set, every journal event with its cycle in
// emission order, and the telemetry snapshot (histograms and spans), so a
// refactor that moves any cycle, counter or event fails here rather than
// in a hand diff of figure exports.
func TestDatapathCyclesPinned(t *testing.T) {
	cases := []pageEquivConfig{
		{name: "mem_only", mode: Mode{MemEncryption: true}},
		{name: "mem_file", mode: Mode{MemEncryption: true, FileEncryption: true}, df: true},
		{name: "locked", mode: Mode{MemEncryption: true, FileEncryption: true}, df: true, lock: true},
		{name: "deleted_key", mode: Mode{MemEncryption: true, FileEncryption: true}, df: true, delKey: true},
		{name: "plain", mode: Mode{}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			want := pinnedDigests[tc.name]
			if got := datapathDigest(t, tc, false); got != want.seq {
				t.Errorf("seq digest %#016x, want %#016x: a completion time, counter, journal event or telemetry sample moved", got, want.seq)
			}
			if got := datapathDigest(t, tc, true); got != want.pageWrap {
				t.Errorf("pageWrap digest %#016x, want %#016x: a completion time, counter, journal event or telemetry sample moved", got, want.pageWrap)
			}
		})
	}
}

// datapathDigest runs one of TestDatapathCyclesPinned's sequences on a
// fresh controller in tc's mode and returns its digest.
func datapathDigest(t *testing.T, tc pageEquivConfig, pageWrap bool) uint64 {
	const (
		group  = uint32(7)
		nFile  = 4 // pages 0..3: DF pages in the file modes
		nPlain = 4 // pages 4..7: never DF
	)
	c := New(config.Default(), tc.mode, stats.NewSet())
	jrn := journal.New(1 << 18)
	c.AttachJournal(jrn)
	reg := telemetry.New()
	c.Instrument(reg)

	h := fnv.New64a()
	var word [8]byte
	note := func(at config.Cycle) config.Cycle {
		binary.LittleEndian.PutUint64(word[:], uint64(at))
		h.Write(word[:])
		return at
	}

	pages := make([]addr.Phys, nFile+nPlain)
	for i := range pages {
		pages[i] = addr.Phys(0x400000 + i*config.PageSize)
		if tc.df && i < nFile {
			pages[i] = pages[i].WithDF()
		}
	}
	now := config.Cycle(0)
	if tc.df {
		for i := 0; i < nFile; i++ {
			now = note(c.InstallKey(now, group, uint16(i+1), fileKey(byte(i+1))))
			now = note(c.TagPage(now, pages[i], group, uint16(i+1)))
		}
		// The key-unavailable page: tagged, then its tunnel closed.
		now = note(c.RemoveKey(now, group, nFile))
	}
	if tc.lock {
		c.Lock()
	}
	if tc.delKey {
		for i := 0; i < nFile; i++ {
			now = note(c.RemoveKey(now, group, uint16(i+1)))
		}
	}

	rng := rand.New(rand.NewSource(2022))
	var line aesctr.Line
	var page aesctr.Page
	if pageWrap {
		// Line 9 of a DF page (where the file datapath is active) leads, so
		// the page write that wraps it does so mid-page, on both counter
		// sides.
		for i := 0; i < 5; i++ {
			now = note(c.WriteLine(now, pages[1]+9*config.LineSize, line)) + 300
		}
		for i := 0; i <= config.MinorCounterMax+1; i++ {
			rng.Read(page[:])
			now = note(c.WritePage(now, pages[1], &page)) + 3000
		}
	} else {
		for op := 0; op < 2000; op++ {
			pa := pages[rng.Intn(len(pages))] + addr.Phys(rng.Intn(config.LinesPerPage)*config.LineSize)
			switch rng.Intn(8) {
			case 0, 1, 2:
				_, done := c.ReadLine(now, pa)
				note(done)
			case 3, 4, 5:
				rng.Read(line[:])
				note(c.WriteLine(now, pa, line))
			case 6:
				note(c.ReadPageInto(now, pa, &page))
			default:
				rng.Read(page[:])
				note(c.WritePage(now, pa, &page))
			}
			// Mostly short gaps, so posted writes pile up and the write
			// queue stalls; sometimes long enough to drain it.
			now += config.Cycle(rng.Intn(200))
			if rng.Intn(16) == 0 {
				now += 20000
			}
		}
		// Forced wraps: memory side alone (plain page), and both sides where
		// the file datapath is active (DF page).
		for i := 0; i <= config.MinorCounterMax+1; i++ {
			now = note(c.WriteLine(now, pages[nFile]+5*config.LineSize, line)) + 300
			now = note(c.WriteLine(now, pages[0]+7*config.LineSize, line)) + 300
		}
	}
	for _, pa := range pages {
		now = note(c.ReadPageInto(now, pa, &page))
		_, done := c.ReadLine(now, pa+9*config.LineSize)
		now = note(done)
	}

	snap := c.Stats().Snapshot()
	names := make([]string, 0, len(snap))
	for name := range snap {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Fprintf(h, "%s=%d\n", name, snap[name])
	}
	if jrn.Drops() != 0 {
		t.Fatalf("journal dropped %d events; grow its capacity", jrn.Drops())
	}
	for _, e := range jrn.Events() {
		fmt.Fprintf(h, "%d %s p%d g%d f%d %s\n", e.Cycle, e.Type, e.Page, e.Group, e.File, e.Detail)
	}
	var tel bytes.Buffer
	if err := reg.Snapshot().WriteJSON(&tel); err != nil {
		t.Fatal(err)
	}
	h.Write(tel.Bytes())

	got := h.Sum64()
	name := "seq"
	if pageWrap {
		name = "pageWrap"
	}
	t.Logf("digest %s %q: %#016x (%d counters, %d journal events, mem/file re-encryptions %d/%d, key_unavailable %d, write_queue_stalls %d)",
		name, tc.name, got, len(names), jrn.Emitted(), snap["mc.mem_reencryptions"], snap["mc.file_reencryptions"],
		snap["mc.key_unavailable"], snap["mc.write_queue_stalls"])
	return got
}
