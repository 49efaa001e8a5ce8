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
// its completion time. Bank state (row buffer, busy-until) is updated. A
// lone access observes its latency histograms directly: zeroing walk's two
// batches would cost more than the atomics they save.
func (m *Memory) Access(now config.Cycle, pa addr.Phys, write bool) config.Cycle {
	var t tally
	bank, row, _ := m.mapping.Run(pa)
	start, service := m.access(now, &m.banks[bank], row, write, &t)
	m.tQueue.Observe(uint64(start - now))
	m.tService.Observe(uint64(service))
	m.flushTally(&t)
	return start + service
}

// AccessRepeat schedules n accesses of the one line containing pa, all
// arriving at now, and returns the completion time of the last: n Access
// calls on the bank state machine, with the bookkeeping folded in once. The
// controller issues a page write's stop-loss counter write-throughs this
// way, and a lone line's single one, which goes as Access.
func (m *Memory) AccessRepeat(now config.Cycle, pa addr.Phys, write bool, n int) config.Cycle {
	if n == 1 {
		return m.Access(now, pa, write)
	}
	return m.walk(now, pa, write, n, 0, nil, nil)
}

// access is the bank state machine shared by Access and walk: one access of
// row on bank b arriving at now. Event counts land in tl, not the stats
// set; it returns when the access starts and how long its service takes,
// from which callers take the completion time and the latency samples.
func (m *Memory) access(now config.Cycle, b *bank, row uint64, write bool, tl *tally) (start, service config.Cycle) {
	start = now
	if b.readyAt > start {
		start = b.readyAt
		tl.conflicts++
	}

	rowHit := b.rowValid && b.openRow == row
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

	busyUntil := start + service
	if write {
		busyUntil += m.cfg.TWR - m.cfg.WriteLatency // recovery overlaps cell write
	}

	// Open-adaptive policy: keep the row open by default; after two
	// consecutive conflicts on this bank, close the row eagerly.
	b.openRow = row
	b.rowValid = true
	if b.conflictStreak >= 2 {
		b.rowValid = false
		b.conflictStreak = 0
		tl.adaptiveCloses++
	}
	b.readyAt = busyUntil
	return start, service
}

// walk schedules n accesses starting at the line containing pa and
// advancing stride lines each (1: a page burst, 0: one line repeated), and
// returns the latest completion. It resolves the bank and row once per run
// of lines sharing them, and folds the event counts and both latency
// histograms in once per call. Access i arrives at starts[i] (at now when
// starts is nil) and its completion goes to dones[i] when dones is non-nil.
func (m *Memory) walk(now config.Cycle, pa addr.Phys, write bool, n, stride int, starts, dones *[config.LinesPerPage]config.Cycle) (last config.Cycle) {
	var tl tally
	var queue, service telemetry.Batch
	for i := 0; i < n; {
		bank, row, lines := m.mapping.Run(pa + addr.Phys(i*stride*config.LineSize))
		if stride == 0 {
			lines = n
		}
		b := &m.banks[bank]
		for end := min(i+lines, n); i < end; i++ {
			at := now
			if starts != nil {
				at = starts[i]
			}
			start, svc := m.access(at, b, row, write, &tl)
			queue.Observe(uint64(start - at))
			service.Observe(uint64(svc))
			last = max(last, start+svc)
			if dones != nil {
				dones[i] = start + svc
			}
		}
	}
	m.flushTally(&tl)
	m.tQueue.Add(&queue)
	m.tService.Add(&service)
	return last
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
// controller feeds them to its write queue). The burst walks the mapping
// once per (bank, row) run and keeps its books once per page.
func (m *Memory) AccessPage(now config.Cycle, pa addr.Phys, write bool, starts, dones *[config.LinesPerPage]config.Cycle) (last config.Cycle) {
	if ts := m.trace; ts.Active() {
		name := "access_page_read"
		if write {
			name = "access_page_write"
		}
		ts.Enter()
		defer func() { ts.Exit("pcm", name, uint64(now), uint64(last), 0) }()
	}
	return m.walk(now, pa.PageAlign(), write, config.LinesPerPage, 1, starts, dones)
}

// ReadPageInto copies the full 4 KB page containing pa into dst.
// Functional only; use AccessPage for timing.
func (m *Memory) ReadPageInto(pa addr.Phys, dst *aesctr.Page) {
	*dst = aesctr.Page(*m.frame(pa))
}

// PeekLinesInto is ReadLinesInto without the first-touch allocation: an
// unbacked frame reads as zeros instead of materializing in the frame map.
// The concurrent read fast-path uses it so a reader goroutine never
// mutates the device (frame allocation would race the owner and perturb
// FramesTouched/migration images).
func (m *Memory) PeekLinesInto(pa addr.Phys, dst []byte) {
	if f, ok := m.frames[pa.PageNum()]; ok {
		copy(dst, f[pa.PageOffset()&^(config.LineSize-1):])
		return
	}
	clear(dst)
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
