// Package machine ties the simulated system together: per-core L1/L2
// caches, a shared L3, and the secure memory controller in front of the PCM
// device. It provides byte-granularity load/store with per-core timing, the
// CLWB/SFENCE persistence primitives persistent-memory software relies on,
// and whole-machine crash/recovery.
//
// Data handling is functional and coherent: every line present anywhere in
// the cache hierarchy has exactly one backing buffer here (plaintext); the
// NVM behind the controller holds ciphertext. Lines reach the NVM only on
// dirty eviction from the L3 or on an explicit flush — which is what makes
// write-intensive persistent workloads pay for every persist, as in the
// paper.
package machine

import (
	"fmt"
	"sort"

	"fsencr/internal/addr"
	"fsencr/internal/aesctr"
	"fsencr/internal/audit"
	"fsencr/internal/cache"
	"fsencr/internal/config"
	"fsencr/internal/memctrl"
	"fsencr/internal/obsplane/journal"
	"fsencr/internal/stats"
	"fsencr/internal/telemetry"
)

type lineBuf struct {
	data  aesctr.Line
	dirty bool
}

// Tracer observes the machine's memory operations (see internal/memtrace for
// a recorder and replayer). Kind values: 'R' read, 'W' write, 'F' flush,
// 'S' fence.
type Tracer interface {
	Event(core int, kind byte, pa addr.Phys, n int)
}

// Machine is the simulated system.
type Machine struct {
	cfg config.Config
	st  *stats.Set
	// Handles on st's "machine." counters, resolved once in NewWithChipSeq.
	nL3DirtyEvictions, nFlushes, nNTWrites, nNCPageReads, nNTPageWrites stats.Counter

	MC    *memctrl.Controller
	l3    *cache.Cache
	cores []*Core
	lines map[addr.Phys]*lineBuf // keyed by full line address (incl. DF-bit)

	tracer Tracer

	// ReadLatency records the end-to-end latency of every demand read that
	// missed to the memory controller (cycles).
	ReadLatency *stats.Histogram

	// flushIssue is the pipeline cost of issuing one CLWB.
	flushIssue config.Cycle

	tMissCycles *telemetry.Histogram
	trace       *telemetry.TraceScope
}

// Instrument attaches a telemetry registry to the machine and the whole
// memory side below it. A nil registry detaches.
func (m *Machine) Instrument(reg *telemetry.Registry) {
	m.tMissCycles = reg.Histogram("machine.read_miss_cycles")
	m.trace = reg.Scope()
	m.MC.Instrument(reg)
}

// AttachJournal attaches a security-event journal to the memory controller
// (the machine itself emits no journal events).
func (m *Machine) AttachJournal(j *journal.Journal) { m.MC.AttachJournal(j) }

// EnableAudit enables the memory controller's tamper-evident access-audit
// plane (capacity <= 0 uses the audit package default) and returns the log.
func (m *Machine) EnableAudit(capacity int) *audit.Log { return m.MC.EnableAudit(capacity) }

// SetTracer installs (or removes, with nil) a memory-operation tracer.
func (m *Machine) SetTracer(t Tracer) { m.tracer = t }

// Core is one simulated hardware thread with its private caches and clock.
type Core struct {
	m   *Machine
	id  int
	l1  *cache.Cache
	l2  *cache.Cache
	Now config.Cycle
	// pendingPersist is the completion time of the latest issued flush;
	// SFENCE waits for it.
	pendingPersist config.Cycle

	Loads  uint64
	Stores uint64
}

// New builds a machine in the given protection mode.
func New(cfg config.Config, mode memctrl.Mode) *Machine {
	return NewWithChipSeq(cfg, mode, 0)
}

// NewWithChipSeq builds a machine whose controller derives its processor
// keys from an explicit chip sequence (0 = auto-unique). Cluster shards
// use deterministic per-shard sequences so a migrated or replicated shard
// reproduces the primary's ciphertext exactly.
func NewWithChipSeq(cfg config.Config, mode memctrl.Mode, chipSeq uint64) *Machine {
	st := stats.NewSet()
	m := &Machine{
		cfg:         cfg,
		st:          st,
		MC:          memctrl.NewWithChipSeq(cfg, mode, st, chipSeq),
		l3:          cache.New("l3", cfg.Processor.L3Size, cfg.Processor.L3Ways),
		lines:       make(map[addr.Phys]*lineBuf),
		ReadLatency: stats.NewHistogram(100, 150, 200, 300, 400, 600, 1000, 2000),
		flushIssue:  5,

		nL3DirtyEvictions: st.Counter("machine.l3_dirty_evictions"),
		nFlushes:          st.Counter("machine.flushes"),
		nNTWrites:         st.Counter("machine.nt_writes"),
		nNCPageReads:      st.Counter("machine.nc_page_reads"),
		nNTPageWrites:     st.Counter("machine.nt_page_writes"),
	}
	for i := 0; i < cfg.Processor.Cores; i++ {
		m.cores = append(m.cores, &Core{
			m:  m,
			id: i,
			l1: cache.New(fmt.Sprintf("l1.%d", i), cfg.Processor.L1Size, cfg.Processor.L1Ways),
			l2: cache.New(fmt.Sprintf("l2.%d", i), cfg.Processor.L2Size, cfg.Processor.L2Ways),
		})
	}
	return m
}

// Config returns the machine configuration.
func (m *Machine) Config() config.Config { return m.cfg }

// Stats returns the machine-wide counter set (shared with the controller).
func (m *Machine) Stats() *stats.Set { return m.st }

// Cores returns the number of cores.
func (m *Machine) Cores() int { return len(m.cores) }

// Core returns core i.
func (m *Machine) Core(i int) *Core { return m.cores[i] }

// access brings the line at la into the hierarchy on behalf of co,
// advancing co's clock, and returns its buffer.
func (m *Machine) access(co *Core, la addr.Phys, write bool) *lineBuf {
	p := m.cfg.Processor
	switch {
	case co.l1.Lookup(uint64(la), false):
		co.Now += p.L1Latency
	case co.l2.Lookup(uint64(la), false):
		co.Now += p.L1Latency + p.L2Latency
		co.l1Insert(la)
	case m.l3.Lookup(uint64(la), false):
		co.Now += p.L1Latency + p.L2Latency + p.L3Latency
		co.l2Insert(la)
		co.l1Insert(la)
	default:
		// Full miss: the request reaches the memory controller after
		// traversing the hierarchy.
		reqAt := co.Now + p.L1Latency + p.L2Latency + p.L3Latency
		data, done := m.MC.ReadLine(reqAt, la)
		m.ReadLatency.Observe(uint64(done - co.Now))
		m.tMissCycles.Observe(uint64(done - co.Now))
		co.Now = done
		if _, ok := m.lines[la]; !ok {
			m.lines[la] = &lineBuf{data: data}
		}
		m.l3Insert(co, la)
		co.l2Insert(la)
		co.l1Insert(la)
	}
	lb := m.lines[la]
	if lb == nil {
		// The line is cached (tags) but its buffer was dropped — this
		// would be a coherence bug; recreate defensively from NVM.
		data, _ := m.MC.ReadLine(co.Now, la)
		lb = &lineBuf{data: data}
		m.lines[la] = lb
	}
	if write {
		lb.dirty = true
	}
	return lb
}

func (co *Core) l1Insert(la addr.Phys) {
	co.l1.Insert(uint64(la), false)
}

func (co *Core) l2Insert(la addr.Phys) {
	co.l2.Insert(uint64(la), false)
}

// l3Insert fills la into the shared L3, handling dirty victim writeback and
// back-invalidation of the victim from every core's private caches
// (inclusive hierarchy).
func (m *Machine) l3Insert(co *Core, la addr.Phys) {
	victim, evicted := m.l3.Insert(uint64(la), false)
	if !evicted {
		return
	}
	va := addr.Phys(victim.LineAddr)
	for _, c := range m.cores {
		c.l1.Invalidate(victim.LineAddr)
		c.l2.Invalidate(victim.LineAddr)
	}
	if lb, ok := m.lines[va]; ok {
		if lb.dirty {
			// Background writeback; nobody stalls on it, but it occupies
			// the controller and a PCM bank.
			m.MC.WriteLine(co.Now, va, lb.data)
			m.nL3DirtyEvictions.Add(1)
		}
		delete(m.lines, va)
	}
}

// Read copies len(b) bytes starting at physical address pa into b,
// advancing the core's clock.
func (co *Core) Read(pa addr.Phys, b []byte) {
	m := co.m
	co.Loads++
	if m.tracer != nil {
		m.tracer.Event(co.id, 'R', pa, len(b))
	}
	off := 0
	for off < len(b) {
		la := (pa + addr.Phys(off)).LineAlign()
		lo := int(uint64(pa)+uint64(off)) & (config.LineSize - 1)
		n := config.LineSize - lo
		if n > len(b)-off {
			n = len(b) - off
		}
		lb := m.access(co, la, false)
		copy(b[off:off+n], lb.data[lo:lo+n])
		off += n
	}
}

// Write stores b starting at physical address pa, advancing the clock.
func (co *Core) Write(pa addr.Phys, b []byte) {
	m := co.m
	co.Stores++
	if m.tracer != nil {
		m.tracer.Event(co.id, 'W', pa, len(b))
	}
	off := 0
	for off < len(b) {
		la := (pa + addr.Phys(off)).LineAlign()
		lo := int(uint64(pa)+uint64(off)) & (config.LineSize - 1)
		n := config.LineSize - lo
		if n > len(b)-off {
			n = len(b) - off
		}
		lb := m.access(co, la, true)
		copy(lb.data[lo:lo+n], b[off:off+n])
		off += n
	}
}

// Flush issues a CLWB for the line containing pa: if the line is dirty its
// contents are written back to the NVM (the line stays cached, clean). The
// writeback completes asynchronously; Fence waits for it.
func (co *Core) Flush(pa addr.Phys) {
	m := co.m
	if m.tracer != nil {
		m.tracer.Event(co.id, 'F', pa, config.LineSize)
	}
	la := pa.LineAlign()
	co.Now += m.flushIssue
	lb, ok := m.lines[la]
	if !ok || !lb.dirty {
		return
	}
	done := m.MC.WriteLine(co.Now, la, lb.data)
	lb.dirty = false
	m.nFlushes.Add(1)
	if done > co.pendingPersist {
		co.pendingPersist = done
	}
}

// Fence executes an SFENCE: the core stalls until all its issued flushes
// have reached the persistence domain.
func (co *Core) Fence() {
	if co.m.tracer != nil {
		co.m.tracer.Event(co.id, 'S', 0, 0)
	}
	if co.pendingPersist > co.Now {
		co.Now = co.pendingPersist
	}
	co.Now += 2
}

// ReadNC performs a non-caching (DMA-style) read of full lines starting at
// pa: all line requests are issued together and the core waits for the last
// to complete. Used by the kernel's device-to-page-cache copies. pa and
// len(buf) must be line-aligned.
func (co *Core) ReadNC(pa addr.Phys, buf []byte) {
	m := co.m
	start := co.Now
	var last config.Cycle
	for off := 0; off < len(buf); off += config.LineSize {
		la := (pa + addr.Phys(off)).LineAlign()
		// A line still dirty in the hierarchy must be read coherently.
		if lb, ok := m.lines[la]; ok {
			copy(buf[off:off+config.LineSize], lb.data[:])
			continue
		}
		data, done := m.MC.ReadLine(start, la)
		copy(buf[off:off+config.LineSize], data[:])
		if done > last {
			last = done
		}
	}
	if last > co.Now {
		co.Now = last
	}
}

// WriteNT performs non-temporal full-line stores starting at pa: lines go
// straight to the memory controller without read-for-ownership or cache
// allocation. The stores are accepted into the persistence domain before
// WriteNT returns; Fence covers them. pa and len(data) must be line-aligned.
func (co *Core) WriteNT(pa addr.Phys, data []byte) {
	m := co.m
	for off := 0; off < len(data); off += config.LineSize {
		la := (pa + addr.Phys(off)).LineAlign()
		var line aesctr.Line
		copy(line[:], data[off:off+config.LineSize])
		// Coherence: drop any cached copy of the overwritten line.
		if lb, ok := m.lines[la]; ok {
			lb.data = line
			lb.dirty = false
		}
		accepted := m.MC.WriteLine(co.Now, la, line)
		if accepted > co.Now {
			co.Now = accepted
		}
		if accepted > co.pendingPersist {
			co.pendingPersist = accepted
		}
	}
	m.nNTWrites.Add(1)
}

// ReadPageNC performs a non-caching read of one full 4 KB page into dst
// through the controller's batched page datapath: one counter fetch, one
// key lookup, and one PCM burst for all 64 lines. If any of the page's
// lines is present in the hierarchy the access degrades to coherent
// per-line NC reads (the cached copies may be newer than the NVM). pa must
// be page-aligned.
func (co *Core) ReadPageNC(pa addr.Phys, dst *aesctr.Page) {
	m := co.m
	if ts := m.trace; ts.Active() {
		start := uint64(co.Now)
		ts.Enter()
		defer func() { ts.Exit("machine", "read_page_nc", start, uint64(co.Now), co.id) }()
	}
	base := pa.PageAlign()
	for off := 0; off < config.PageSize; off += config.LineSize {
		if _, ok := m.lines[base+addr.Phys(off)]; ok {
			co.ReadNC(base, dst[:])
			return
		}
	}
	done := m.MC.ReadPageInto(co.Now, base, dst)
	if done > co.Now {
		co.Now = done
	}
	m.nNCPageReads.Add(1)
}

// SnapshotReadPage is the concurrent read fast-path's coherent page read:
// the page is decrypted through the controller's read-only snapshot entry
// point, then any lines cached in the hierarchy (dirty or clean) are
// overlaid so the result matches what ReadPageNC/ReadNC would have
// returned. No machine state is mutated and no core clock advances; side
// effects land in d for the owner goroutine to drain. Must run with the
// owning shard quiescent (its seqlock held for reading). pa must be
// page-aligned. Returns false when the controller path must fall back.
func (m *Machine) SnapshotReadPage(rd *memctrl.Reader, pa addr.Phys, dst *aesctr.Page, d *memctrl.ReadDelta) bool {
	base := pa.PageAlign()
	if !m.MC.SnapshotReadPage(rd, base, dst, d) {
		return false
	}
	// The ECC tags above were checked against the NVM-resident plaintext;
	// cached lines overlay afterwards, exactly as the live path serves
	// cached data without re-reading the array.
	for off := 0; off < config.PageSize; off += config.LineSize {
		if lb, ok := m.lines[base+addr.Phys(off)]; ok {
			copy(dst[off:off+config.LineSize], lb.data[:])
		}
	}
	return true
}

// WritePageNT performs a non-temporal store of one full 4 KB page through
// the batched page datapath: the controller accepts all 64 lines as one
// burst (covered by Fence, like WriteNT), and any cached copies are
// updated in place and marked clean for coherence. pa must be
// page-aligned.
func (co *Core) WritePageNT(pa addr.Phys, src *aesctr.Page) {
	m := co.m
	if ts := m.trace; ts.Active() {
		start := uint64(co.Now)
		ts.Enter()
		defer func() { ts.Exit("machine", "write_page_nt", start, uint64(co.Now), co.id) }()
	}
	base := pa.PageAlign()
	for off := 0; off < config.PageSize; off += config.LineSize {
		if lb, ok := m.lines[base+addr.Phys(off)]; ok {
			copy(lb.data[:], src[off:off+config.LineSize])
			lb.dirty = false
		}
	}
	accepted := m.MC.WritePage(co.Now, base, src)
	if accepted > co.Now {
		co.Now = accepted
	}
	if accepted > co.pendingPersist {
		co.pendingPersist = accepted
	}
	m.nNTWrites.Add(1)
	m.nNTPageWrites.Add(1)
}

// Compute advances the core's clock by n cycles of non-memory work.
func (co *Core) Compute(n config.Cycle) { co.Now += n }

// ID returns the core index.
func (co *Core) ID() int { return co.id }

// WritebackAll flushes every dirty line to NVM in ascending address order
// (used at clean shutdown and at measurement boundaries to put schemes on
// equal footing). The ordering matters: PCM bank conflict counts and
// busy-until times depend on access order, and the cluster fabric replays
// this flush as an admission-log step that must reproduce identical state
// on every replayer — map iteration order must not leak into it.
func (m *Machine) WritebackAll() {
	dirty := make([]addr.Phys, 0, len(m.lines))
	for la, lb := range m.lines {
		if lb.dirty {
			dirty = append(dirty, la)
		}
	}
	sort.Slice(dirty, func(i, j int) bool { return dirty[i] < dirty[j] })
	for _, la := range dirty {
		lb := m.lines[la]
		m.MC.WriteLine(0, la, lb.data)
		lb.dirty = false
	}
}

// Crash models a sudden power loss: all caches (data and metadata) lose
// their contents; only what reached the NVM survives. backupPower controls
// whether the OTT is flushed with residual energy (§III-H).
func (m *Machine) Crash(backupPower bool) {
	m.lines = make(map[addr.Phys]*lineBuf)
	m.l3.Clear()
	for _, c := range m.cores {
		c.l1.Clear()
		c.l2.Clear()
		c.pendingPersist = 0
	}
	m.MC.Crash(backupPower)
}

// Recover runs post-crash recovery at the controller (Osiris counter
// reconstruction + Merkle rebuild).
func (m *Machine) Recover() error { return m.MC.Recover() }

// MaxCoreTime returns the largest core clock (the wall-clock of a parallel
// region).
func (m *Machine) MaxCoreTime() config.Cycle {
	var max config.Cycle
	for _, c := range m.cores {
		if c.Now > max {
			max = c.Now
		}
	}
	return max
}

// SyncCores sets every core's clock to the maximum (a barrier).
func (m *Machine) SyncCores() {
	max := m.MaxCoreTime()
	for _, c := range m.cores {
		c.Now = max
	}
}
