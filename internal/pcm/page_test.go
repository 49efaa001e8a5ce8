package pcm

import (
	"fmt"
	"reflect"
	"testing"

	"fsencr/internal/addr"
	"fsencr/internal/aesctr"
	"fsencr/internal/config"
	"fsencr/internal/stats"
	"fsencr/internal/telemetry"
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

// instrumented returns a device with a telemetry registry attached.
func instrumented() (*Memory, *stats.Set, *telemetry.Registry) {
	st, reg := stats.NewSet(), telemetry.New()
	m := New(config.Default().PCM, st)
	m.Instrument(reg)
	return m, st, reg
}

// requireSameBooks fails unless two devices' event counters and latency
// histograms (buckets, count, sum, max) are equal.
func requireSameBooks(t *testing.T, what string, st, wantSt *stats.Set, reg, wantReg *telemetry.Registry) {
	t.Helper()
	for _, name := range []string{"pcm.reads", "pcm.writes", "pcm.row_hits", "pcm.row_misses", "pcm.bank_conflicts", "pcm.adaptive_closes"} {
		if st.Get(name) != wantSt.Get(name) {
			t.Errorf("%s %s: %d, per-line Access %d", what, name, st.Get(name), wantSt.Get(name))
		}
	}
	got, want := reg.Snapshot().Histograms, wantReg.Snapshot().Histograms
	for _, name := range []string{"pcm.queue_delay_cycles", "pcm.service_cycles"} {
		if want[name] == nil || want[name].Count == 0 {
			t.Fatalf("%s: per-line Access recorded no %s", what, name)
		}
		if !reflect.DeepEqual(got[name], want[name]) {
			t.Errorf("%s %s: %+v, per-line Access %+v", what, name, got[name], want[name])
		}
	}
}

// TestAccessPageStatsMatchPerLine pins that batching only changes how event
// counters and latency histograms are flushed, never what they record.
func TestAccessPageStatsMatchPerLine(t *testing.T) {
	pa := addr.Phys(0x200000)
	var starts, dones [config.LinesPerPage]config.Cycle

	mPage, stPage, regPage := instrumented()
	for li := range starts {
		starts[li] = config.Cycle(li)
	}
	mPage.AccessPage(0, pa, true, &starts, &dones)

	mLine, stLine, regLine := instrumented()
	for li := 0; li < config.LinesPerPage; li++ {
		want := mLine.Access(starts[li], pa+addr.Phys(li*config.LineSize), true)
		if dones[li] != want {
			t.Fatalf("line %d: AccessPage done %d != Access done %d", li, dones[li], want)
		}
	}

	requireSameBooks(t, "page path", stPage, stLine, regPage, regLine)
}

// TestAccessRepeatMatchesAccess: n accesses to one line as one call leave
// the bank, the completion time and the counters exactly where n Access
// calls leave them, histograms included, on a bank that is idle, busy, and
// busy in another row.
func TestAccessRepeatMatchesAccess(t *testing.T) {
	line := addr.Phys(0x300000)
	for _, n := range []int{1, 2, 32} {
		mRep, stRep, regRep := instrumented()
		mOne, stOne, regOne := instrumented()
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
		requireSameBooks(t, fmt.Sprintf("n=%d repeat", n), stRep, stOne, regRep, regOne)
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

// BenchmarkAccessRepeat is the shape of a page write's stop-loss
// write-throughs: 32 writes to one line in one call.
func BenchmarkAccessRepeat(b *testing.B) {
	m := newMem()
	b.ReportAllocs()
	now := config.Cycle(0)
	for i := 0; i < b.N; i++ {
		now = m.AccessRepeat(now, addr.Phys(i%16)*config.PageSize, true, 32)
	}
}
