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
// against. They were recorded at commit 52cf651 — the last one with
// separate line and page datapaths — by running
//
//	go test -run TestDatapathCyclesPinned -v ./internal/memctrl
//
// and copying the "digest" line each subtest logs. The unified datapath
// must reproduce them unchanged; re-record the same way only with a change
// that means to alter the controller's timing model, and say so there.
var pinnedDigests = map[string]uint64{
	"mem_only":    0x73c8d42a7817e1a3,
	"mem_file":    0xccf16d0eb880d401,
	"locked":      0x5e1f85081c3b360d,
	"deleted_key": 0x39a672b31accb47b,
	"plain":       0x37ded91a6eb8ca1a,
}

// TestDatapathCyclesPinned pins the controller's simulated timing at
// tier-1: a fixed seeded sequence of about 2000 line and page reads and
// writes over DF and plain pages — with one key-unavailable page, a forced
// minor-counter wrap on each counter side by line writes, and one by page
// writes — runs in each of TestWritePageEquivalence's five modes. The
// digest is an FNV-64a over every completion and accept time the
// controller returned, the final counter set, every journal event with its
// cycle in emission order, and the telemetry snapshot (histograms and
// spans), so a refactor that moves any cycle, counter or event fails here
// rather than in a hand diff of figure exports.
func TestDatapathCyclesPinned(t *testing.T) {
	const (
		group  = uint32(7)
		nFile  = 4 // pages 0..3: DF pages in the file modes
		nPlain = 4 // pages 4..7: never DF
	)
	cases := []pageEquivConfig{
		{name: "mem_only", mode: Mode{MemEncryption: true}},
		{name: "mem_file", mode: Mode{MemEncryption: true, FileEncryption: true}, df: true},
		{name: "locked", mode: Mode{MemEncryption: true, FileEncryption: true}, df: true, lock: true},
		{name: "deleted_key", mode: Mode{MemEncryption: true, FileEncryption: true}, df: true, delKey: true},
		{name: "plain", mode: Mode{}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
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
			// Forced wraps: memory side alone (plain page), both sides where
			// the file datapath is active (DF page), and the page write's
			// by-lines fallback.
			for i := 0; i <= config.MinorCounterMax+1; i++ {
				now = note(c.WriteLine(now, pages[nFile]+5*config.LineSize, line)) + 300
				now = note(c.WriteLine(now, pages[0]+7*config.LineSize, line)) + 300
				now = note(c.WritePage(now, pages[1], &page)) + 3000
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
			t.Logf("digest %q: %#016x (%d counters, %d journal events, mem/file re-encryptions %d/%d, key_unavailable %d, write_queue_stalls %d)",
				tc.name, got, len(names), jrn.Emitted(), snap["mc.mem_reencryptions"], snap["mc.file_reencryptions"],
				snap["mc.key_unavailable"], snap["mc.write_queue_stalls"])
			if want := pinnedDigests[tc.name]; got != want {
				t.Errorf("datapath digest %#016x, want %#016x: a completion time, counter, journal event or telemetry sample moved", got, want)
			}
		})
	}
}
