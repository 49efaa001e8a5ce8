// Package pcm models the DDR-based PCM main memory of Table III: two
// channels of two ranks of eight banks, 1 KB row buffers with an
// open-adaptive page policy, RoRaBaChCo address mapping, and asymmetric
// 60 ns read / 150 ns write array latencies.
//
// The model is functional *and* timed: it owns the actual backing bytes of
// the simulated NVM (ciphertext lands here), and it schedules accesses on
// banks using a busy-until model that captures row-buffer locality and bank
// conflicts without a full DRAM command state machine.
package pcm

import (
	"fsencr/internal/addr"
	"fsencr/internal/aesctr"
	"fsencr/internal/config"
	"fsencr/internal/stats"
	"fsencr/internal/telemetry"
)

type bank struct {
	readyAt  config.Cycle
	openRow  uint64
	rowValid bool
	// conflictStreak drives the open-adaptive policy: after repeated row
	// misses the bank closes its row eagerly (precharge after access),
	// converting future conflicts into plain misses instead of
	// miss+precharge.
	conflictStreak int
	adaptiveClosed bool
}

// Memory is the PCM device: sparse backing store plus bank timing state.
type Memory struct {
	cfg     config.PCM
	mapping *addr.Mapping
	banks   []bank
	frames  map[uint64]*[config.PageSize]byte
	st      *stats.Set

	// Event counts, on handles resolved once in New; flushTally adds to
	// them once per call, not per event.
	nConflicts, nRowHits, nRowMisses, nAdaptiveCloses, nReads, nWrites stats.Counter

	// Telemetry-native distributions; the event counts themselves stay in
	// the stats.Set ("pcm.row_hits", ...) and are folded into the exported
	// snapshot by the harness, so these carry only what stats cannot:
	// per-access latency shape.
	tService *telemetry.Histogram
	tQueue   *telemetry.Histogram
	trace    *telemetry.TraceScope
}

// Instrument attaches telemetry handles. A nil registry detaches.
func (m *Memory) Instrument(reg *telemetry.Registry) {
	m.tService = reg.Histogram("pcm.service_cycles")
	m.tQueue = reg.Histogram("pcm.queue_delay_cycles")
	m.trace = reg.Scope()
}

// New builds a PCM device from the configuration, reporting traffic into st.
func New(cfg config.PCM, st *stats.Set) *Memory {
	m := &Memory{
		cfg:     cfg,
		mapping: addr.NewMapping(cfg),
		frames:  make(map[uint64]*[config.PageSize]byte),
		st:      st,

		nConflicts:      st.Counter("pcm.bank_conflicts"),
		nRowHits:        st.Counter("pcm.row_hits"),
		nRowMisses:      st.Counter("pcm.row_misses"),
		nAdaptiveCloses: st.Counter("pcm.adaptive_closes"),
		nReads:          st.Counter("pcm.reads"),
		nWrites:         st.Counter("pcm.writes"),
	}
	m.banks = make([]bank, m.mapping.TotalBanks())
	return m
}

// frame returns the backing page for pa, allocating it zeroed on first use.
func (m *Memory) frame(pa addr.Phys) *[config.PageSize]byte {
	pn := pa.PageNum()
	f, ok := m.frames[pn]
	if !ok {
		f = new([config.PageSize]byte)
		m.frames[pn] = f
	}
	return f
}

// ReadLine returns the 64 bytes stored at the line containing pa.
// Functional only; use Access for timing.
func (m *Memory) ReadLine(pa addr.Phys) aesctr.Line {
	f := m.frame(pa)
	off := pa.PageOffset() &^ (config.LineSize - 1)
	var line aesctr.Line
	copy(line[:], f[off:off+config.LineSize])
	return line
}

// WriteLine stores 64 bytes at the line containing pa. Functional only.
func (m *Memory) WriteLine(pa addr.Phys, line aesctr.Line) {
	f := m.frame(pa)
	off := pa.PageOffset() &^ (config.LineSize - 1)
	copy(f[off:off+config.LineSize], line[:])
}

// ReadLinesInto copies the len(dst)/64 consecutive lines starting at the
// line containing pa (all within one page) into dst. Functional only.
func (m *Memory) ReadLinesInto(pa addr.Phys, dst []byte) {
	copy(dst, m.frame(pa)[pa.PageOffset()&^(config.LineSize-1):])
}

// WriteLinesFrom stores src over the len(src)/64 consecutive lines starting
// at the line containing pa (all within one page). Functional only.
func (m *Memory) WriteLinesFrom(pa addr.Phys, src []byte) {
	copy(m.frame(pa)[pa.PageOffset()&^(config.LineSize-1):], src)
}

// tally accumulates per-access event counts across a batch so a page-sized
// burst costs a handful of counter updates instead of 64x per-event ones.
type tally struct {
	conflicts, rowHits, rowMisses, adaptiveCloses, reads, writes uint64
}

func (m *Memory) flushTally(t *tally) {
	if t.conflicts > 0 {
		m.nConflicts.Add(t.conflicts)
	}
	if t.rowHits > 0 {
		m.nRowHits.Add(t.rowHits)
	}
	if t.rowMisses > 0 {
		m.nRowMisses.Add(t.rowMisses)
	}
	if t.adaptiveCloses > 0 {
		m.nAdaptiveCloses.Add(t.adaptiveCloses)
	}
	if t.reads > 0 {
		m.nReads.Add(t.reads)
	}
	if t.writes > 0 {
		m.nWrites.Add(t.writes)
	}
}

// Access schedules a line read or write arriving at time now and returns
// its completion time. Bank state (row buffer, busy-until) is updated.
func (m *Memory) Access(now config.Cycle, pa addr.Phys, write bool) config.Cycle {
	var t tally
	done := m.access(now, pa, write, &t)
	m.flushTally(&t)
	return done
}

// AccessRepeat schedules n accesses of the one line containing pa, all
// arriving at now, and returns the completion time of the last: n Access
// calls on the bank state machine, with the event counts folded into the
// stats set once. The controller issues a page write's stop-loss counter
// write-throughs this way.
func (m *Memory) AccessRepeat(now config.Cycle, pa addr.Phys, write bool, n int) (last config.Cycle) {
	var t tally
	for i := 0; i < n; i++ {
		last = m.access(now, pa, write, &t)
	}
	m.flushTally(&t)
	return last
}

// access is the bank state machine shared by Access, AccessRepeat and
// AccessPage; event counts land in t, not the stats set.
func (m *Memory) access(now config.Cycle, pa addr.Phys, write bool, tl *tally) config.Cycle {
	d := m.mapping.Decompose(pa)
	b := &m.banks[m.mapping.BankID(d)]

	start := now
	if b.readyAt > start {
		start = b.readyAt
		tl.conflicts++
	}
	m.tQueue.Observe(uint64(start - now))

	var service config.Cycle
	rowHit := b.rowValid && b.openRow == d.Row
	switch {
	case rowHit:
		service = m.cfg.RowBufferHitLatency
		tl.rowHits++
		b.conflictStreak = 0
	default:
		// Row miss: activate (tRCD + array read to fill the row buffer),
		// then column access.
		array := m.cfg.ReadLatency
		service = m.cfg.TRCD + array + m.cfg.TCL + m.cfg.TBURST
		tl.rowMisses++
		if b.rowValid {
			b.conflictStreak++
		}
	}
	if write {
		// PCM writes pay the long cell-write latency on the way to the
		// array; write recovery keeps the bank busy afterwards.
		service += m.cfg.WriteLatency
		tl.writes++
	} else {
		tl.reads++
	}

	done := start + service
	m.tService.Observe(uint64(service))
	busyUntil := done
	if write {
		busyUntil += m.cfg.TWR - m.cfg.WriteLatency // recovery overlaps cell write
	}

	// Open-adaptive policy: keep the row open by default; after two
	// consecutive conflicts on this bank, close the row eagerly.
	b.openRow = d.Row
	b.rowValid = true
	if b.conflictStreak >= 2 {
		b.rowValid = false
		b.conflictStreak = 0
		tl.adaptiveCloses++
	}
	b.readyAt = busyUntil
	return done
}

// AccessPage schedules all 64 line accesses of the page containing pa as
// one burst and returns the completion time of the last. Under the
// RoRaBaChCo mapping the page's lines stripe across channels and banks
// (16 row-buffer-local lines per bank on the default geometry), so the
// per-bank queues drain in parallel — the page completes in roughly the
// per-bank share of the work, not 64 serialized line times, matching the
// bank-parallelism the line datapath already exhibits across cores.
//
// starts optionally gives each line its own issue time (otherwise all
// issue at now); dones optionally receives per-line completion times (the
// controller feeds them to its write queue). Event counters are folded
// into the stats set once per page instead of once per line.
func (m *Memory) AccessPage(now config.Cycle, pa addr.Phys, write bool, starts, dones *[config.LinesPerPage]config.Cycle) (last config.Cycle) {
	if ts := m.trace; ts.Active() {
		name := "access_page_read"
		if write {
			name = "access_page_write"
		}
		ts.Enter()
		defer func() { ts.Exit("pcm", name, uint64(now), uint64(last), 0) }()
	}
	base := pa.PageAlign()
	var tl tally
	for li := 0; li < config.LinesPerPage; li++ {
		at := now
		if starts != nil {
			at = starts[li]
		}
		done := m.access(at, base+addr.Phys(li*config.LineSize), write, &tl)
		if dones != nil {
			dones[li] = done
		}
		if done > last {
			last = done
		}
	}
	m.flushTally(&tl)
	return last
}

// ReadPageInto copies the full 4 KB page containing pa into dst.
// Functional only; use AccessPage for timing.
func (m *Memory) ReadPageInto(pa addr.Phys, dst *aesctr.Page) {
	*dst = aesctr.Page(*m.frame(pa))
}

// PeekPageInto is ReadPageInto without the first-touch allocation: an
// unbacked frame reads as zeros instead of materializing in the frame map.
// The concurrent read fast-path uses it so a reader goroutine never
// mutates the device (frame allocation would race the owner and perturb
// FramesTouched/migration images).
func (m *Memory) PeekPageInto(pa addr.Phys, dst *aesctr.Page) {
	if f, ok := m.frames[pa.PageNum()]; ok {
		*dst = aesctr.Page(*f)
		return
	}
	*dst = aesctr.Page{}
}

// WritePageFrom stores a full 4 KB page at the page containing pa.
// Functional only.
func (m *Memory) WritePageFrom(pa addr.Phys, src *aesctr.Page) {
	*m.frame(pa) = [config.PageSize]byte(*src)
}

// Reads returns the number of line reads serviced.
func (m *Memory) Reads() uint64 { return m.st.Get("pcm.reads") }

// Writes returns the number of line writes serviced.
func (m *Memory) Writes() uint64 { return m.st.Get("pcm.writes") }

// FramesTouched returns how many distinct 4 KB frames have backing storage.
func (m *Memory) FramesTouched() int { return len(m.frames) }

// ExportFrames deep-copies every backed frame, keyed by page number — the
// serializable form of the device contents (ciphertext) used by shard
// migration images.
func (m *Memory) ExportFrames() map[uint64][]byte {
	out := make(map[uint64][]byte, len(m.frames))
	for pn, f := range m.frames {
		b := make([]byte, config.PageSize)
		copy(b, f[:])
		out[pn] = b
	}
	return out
}

// ImportFrames replaces the device contents with the exported set. Frames
// shorter than a page are zero-padded; timing state is untouched.
func (m *Memory) ImportFrames(frames map[uint64][]byte) {
	m.frames = make(map[uint64]*[config.PageSize]byte, len(frames))
	for pn, b := range frames {
		f := new([config.PageSize]byte)
		copy(f[:], b)
		m.frames[pn] = f
	}
}

// ResetTiming clears bank state (used at measurement-phase boundaries so
// warm-up traffic does not leak stale busy-until times into the measured
// region; contents are preserved).
func (m *Memory) ResetTiming() {
	for i := range m.banks {
		m.banks[i] = bank{}
	}
}
