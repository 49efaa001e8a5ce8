package pcm

import (
	"testing"

	"fsencr/internal/addr"
	"fsencr/internal/aesctr"
	"fsencr/internal/config"
	"fsencr/internal/stats"
)

func TestPageRoundtrip(t *testing.T) {
	m := newMem()
	var page aesctr.Page
	for i := range page {
		page[i] = byte(i * 7)
	}
	m.WritePageFrom(0x4000, &page)
	var got aesctr.Page
	m.ReadPageInto(0x4000, &got)
	if got != page {
		t.Fatal("page roundtrip failed")
	}
	// Page and line views agree.
	line := m.ReadLine(0x4000 + 3*config.LineSize)
	for i := range line {
		if line[i] != page[3*config.LineSize+i] {
			t.Fatalf("line view disagrees at byte %d", i)
		}
	}
}

// TestAccessPagePipelinesBanks verifies the batched page access overlaps
// work across the banks a page stripes over: the burst must complete well
// before 64 strictly chained line accesses would.
func TestAccessPagePipelinesBanks(t *testing.T) {
	pa := addr.Phys(0x100000)

	m1 := newMem()
	pageDone := m1.AccessPage(0, pa, false, nil, nil)

	m2 := newMem()
	chained := config.Cycle(0)
	for li := 0; li < config.LinesPerPage; li++ {
		chained = m2.Access(chained, pa+addr.Phys(li*config.LineSize), false)
	}

	if pageDone >= chained {
		t.Fatalf("AccessPage %d cycles >= chained line accesses %d cycles: no bank pipelining", pageDone, chained)
	}
	// The default geometry stripes a page over 4 (channel, bank) pairs, so
	// the burst should land near a quarter of the serial time.
	if pageDone > chained/2 {
		t.Errorf("AccessPage %d cycles > half of serial %d: pipelining weaker than the bank stripe allows", pageDone, chained)
	}
}

// TestAccessPageStatsMatchPerLine pins that batching only changes how event
// counters are flushed, never what they count.
func TestAccessPageStatsMatchPerLine(t *testing.T) {
	pa := addr.Phys(0x200000)
	var starts, dones [config.LinesPerPage]config.Cycle

	stPage := stats.NewSet()
	mPage := New(config.Default().PCM, stPage)
	for li := range starts {
		starts[li] = config.Cycle(li)
	}
	mPage.AccessPage(0, pa, true, &starts, &dones)

	stLine := stats.NewSet()
	mLine := New(config.Default().PCM, stLine)
	for li := 0; li < config.LinesPerPage; li++ {
		want := mLine.Access(starts[li], pa+addr.Phys(li*config.LineSize), true)
		if dones[li] != want {
			t.Fatalf("line %d: AccessPage done %d != Access done %d", li, dones[li], want)
		}
	}

	for _, name := range []string{"pcm.reads", "pcm.writes", "pcm.row_hits", "pcm.row_misses", "pcm.bank_conflicts", "pcm.adaptive_closes"} {
		if stPage.Get(name) != stLine.Get(name) {
			t.Errorf("%s: page path %d != line path %d", name, stPage.Get(name), stLine.Get(name))
		}
	}
}

// TestAccessRepeatMatchesAccess: n accesses to one line as one call leave
// the bank, the completion time and the counters exactly where n Access
// calls leave them, on a bank that is idle, busy, and busy in another row.
func TestAccessRepeatMatchesAccess(t *testing.T) {
	line := addr.Phys(0x300000)
	for _, n := range []int{1, 2, 32} {
		stRep, stOne := stats.NewSet(), stats.NewSet()
		mRep, mOne := New(config.Default().PCM, stRep), New(config.Default().PCM, stOne)
		// Leave the line's bank busy in a different row first.
		other := line + addr.Phys(64*config.PageSize)
		mRep.Access(0, other, false)
		mOne.Access(0, other, false)

		for round, now := range []config.Cycle{10, 10, 100000} {
			got := mRep.AccessRepeat(now, line, true, n)
			var want config.Cycle
			for i := 0; i < n; i++ {
				want = mOne.Access(now, line, true)
			}
			if got != want {
				t.Fatalf("n=%d round %d: AccessRepeat done %d, %d Access calls done %d", n, round, got, n, want)
			}
		}
		if after, want := mRep.Access(200000, line, false), mOne.Access(200000, line, false); after != want {
			t.Fatalf("n=%d: bank state diverged: next access done %d vs %d", n, after, want)
		}
		for _, name := range []string{"pcm.reads", "pcm.writes", "pcm.row_hits", "pcm.row_misses", "pcm.bank_conflicts", "pcm.adaptive_closes"} {
			if stRep.Get(name) != stOne.Get(name) {
				t.Errorf("n=%d %s: repeat %d != per-call %d", n, name, stRep.Get(name), stOne.Get(name))
			}
		}
	}
}

func BenchmarkAccessPage(b *testing.B) {
	m := newMem()
	b.ReportAllocs()
	now := config.Cycle(0)
	for i := 0; i < b.N; i++ {
		now = m.AccessPage(now, addr.Phys(i%16)*config.PageSize, i%2 == 0, nil, nil)
	}
}
