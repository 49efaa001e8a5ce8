// Package core is the experiment harness: it assembles a full system
// (machine + kernel + filesystem) for each protection scheme, runs the
// Table II workloads on it with an untimed setup phase and a timed
// measurement phase, and regenerates every figure of the paper's evaluation
// from the collected statistics.
package core

import (
	"fmt"
	"hash/fnv"

	"fsencr/internal/config"
	"fsencr/internal/kernel"
	"fsencr/internal/memctrl"
	"fsencr/internal/obsplane/journal"
	"fsencr/internal/runner"
	"fsencr/internal/telemetry"
	"fsencr/internal/workloads"
)

// Scheme is one of the system configurations compared in the evaluation.
type Scheme int

// Schemes.
const (
	// SchemePlain is ext4-dax with no encryption at all (Figure 3's
	// baseline).
	SchemePlain Scheme = iota
	// SchemeBaseline is ext4-dax plus counter-mode memory encryption with
	// Bonsai-Merkle-tree integrity ("① Baseline Security").
	SchemeBaseline
	// SchemeFsEncr adds the paper's hardware-assisted filesystem
	// encryption on top of the baseline ("② FsEncr").
	SchemeFsEncr
	// SchemeSWEncr is eCryptfs-style software filesystem encryption over
	// the page cache (no DAX).
	SchemeSWEncr
)

func (s Scheme) String() string {
	switch s {
	case SchemePlain:
		return "ext4-dax"
	case SchemeBaseline:
		return "baseline"
	case SchemeFsEncr:
		return "fsencr"
	case SchemeSWEncr:
		return "swencr"
	default:
		return fmt.Sprintf("Scheme(%d)", int(s))
	}
}

// MCMode returns the memory-controller protection mode for the scheme.
func (s Scheme) MCMode() memctrl.Mode {
	switch s {
	case SchemeBaseline:
		return memctrl.Mode{MemEncryption: true}
	case SchemeFsEncr:
		return memctrl.Mode{MemEncryption: true, FileEncryption: true}
	default:
		return memctrl.Mode{}
	}
}

// AccessMode returns how file pages reach applications under the scheme.
func (s Scheme) AccessMode() kernel.AccessMode {
	if s == SchemeSWEncr {
		return kernel.ModeSWEncrypt
	}
	return kernel.ModeDAX
}

// FilesEncrypted reports whether benchmark files carry filesystem
// encryption under the scheme.
func (s Scheme) FilesEncrypted() bool {
	return s == SchemeFsEncr || s == SchemeSWEncr
}

// Request describes one simulation.
type Request struct {
	Workload string
	Scheme   Scheme
	// Ops is the number of timed operations per thread.
	Ops int
	// Seed drives the workload's random choices (defaults to 1).
	Seed uint64
	// Cfg overrides the Table III configuration when non-nil.
	Cfg *config.Config
}

// Result carries the measured statistics of one simulation.
type Result struct {
	Workload string
	Scheme   Scheme
	// Cycles is the wall-clock of the timed phase (max over threads).
	Cycles uint64
	// NVMReads/NVMWrites count PCM line accesses during the timed phase,
	// including security-metadata traffic.
	NVMReads  uint64
	NVMWrites uint64
	// MetaReads/MetaWritebacks count the metadata share of that traffic.
	MetaReads      uint64
	MetaWritebacks uint64
	// MetaHits/MetaMisses are metadata-cache probe outcomes.
	MetaHits   uint64
	MetaMisses uint64
	// Faults counts minor page faults during the timed phase.
	Faults uint64
	// ReadLatMean/ReadLatMax summarize the latency of demand reads that
	// missed to the memory controller (whole run, including setup).
	ReadLatMean float64
	ReadLatMax  uint64
	// Ops echoes the per-thread operation count.
	Ops int
	// Telemetry is the run's telemetry snapshot (nil unless telemetry
	// collection is enabled; see EnableTelemetry). Omitted from JSON
	// results — export it through the snapshot writers instead.
	Telemetry *telemetry.Snapshot `json:"-"`
	// Journal is the run's security-event journal (nil unless collection
	// is enabled; see EnableJournal). Export it through journal.WriteJSONL.
	Journal *journal.Log `json:"-"`
}

// CyclesPerOp returns average cycles per timed operation.
func (r Result) CyclesPerOp() float64 {
	if r.Ops == 0 {
		return 0
	}
	return float64(r.Cycles) / float64(r.Ops)
}

// MintRunTraceID derives the deterministic trace ID of a simulation run
// from its request identity, so trace exports are byte-identical at any
// batch parallelism.
func MintRunTraceID(workload, scheme string, seed uint64) uint64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%s/%s/%d", workload, scheme, seed)
	return telemetry.MintTraceID(h.Sum64(), 0)
}

// Run executes one simulation request.
func Run(req Request) (Result, error) {
	w, err := workloads.Lookup(req.Workload)
	if err != nil {
		return Result{}, err
	}
	cfg := config.Default()
	if req.Cfg != nil {
		cfg = *req.Cfg
	}
	seed := req.Seed
	if seed == 0 {
		seed = 1
	}
	if req.Ops <= 0 {
		return Result{}, fmt.Errorf("core: request needs a positive op count")
	}

	sys := kernel.Boot(cfg, req.Scheme.MCMode(), req.Scheme.AccessMode())
	var reg *telemetry.Registry
	var scope *telemetry.TraceScope
	if TelemetryEnabled() {
		// A private registry per run: the system is driven by a single
		// goroutine, so everything recorded is deterministic. The trace
		// scope must attach before Instrument so the components' cached
		// scope pointers are live.
		reg = telemetry.New()
		scope = telemetry.NewTraceScope()
		reg.AttachTraceScope(scope)
		sys.Instrument(reg)
	}
	var jrn *journal.Journal
	if JournalEnabled() {
		// Likewise a private journal per run: one emitter, simulation order.
		jrn = journal.New(journal.DefaultCapacity)
		sys.AttachJournal(jrn)
	}
	env := workloads.NewEnv(sys, w.Threads, req.Ops, req.Scheme.FilesEncrypted(), seed)
	if err := w.Setup(env); err != nil {
		return Result{}, fmt.Errorf("core: %s/%s setup: %w", req.Workload, req.Scheme, err)
	}

	// Measurement boundary: align thread clocks, quiesce bank timing, and
	// snapshot counters. Cache contents stay warm (the paper fast-forwards,
	// it does not flush).
	m := sys.M
	m.SyncCores()
	m.MC.PCM.ResetTiming()
	start := m.MaxCoreTime()
	before := m.Stats().Snapshot()
	var faultsBefore uint64
	for _, p := range env.Procs {
		faultsBefore += p.MinorFaults
	}

	// Trace the timed phase: the run root span encloses every span the
	// layers below record, so the chrome export renders a parent-linked
	// waterfall. The trace ID derives from the request identity alone —
	// byte-identical exports at any Parallelism.
	if scope != nil {
		scope.Begin(MintRunTraceID(req.Workload, req.Scheme.String(), seed), 0)
		scope.Enter()
	}

	if err := w.Run(env); err != nil {
		return Result{}, fmt.Errorf("core: %s/%s run: %w", req.Workload, req.Scheme, err)
	}

	after := m.Stats().Snapshot()
	delta := func(k string) uint64 { return after[k] - before[k] }
	var faultsAfter uint64
	for _, p := range env.Procs {
		faultsAfter += p.MinorFaults
	}

	res := Result{
		Workload:       req.Workload,
		Scheme:         req.Scheme,
		Cycles:         uint64(m.MaxCoreTime() - start),
		NVMReads:       delta("pcm.reads"),
		NVMWrites:      delta("pcm.writes"),
		MetaReads:      delta("mc.meta_reads"),
		MetaWritebacks: delta("mc.meta_writebacks"),
		MetaHits:       delta("mc.meta_hits"),
		MetaMisses:     delta("mc.meta_misses"),
		Faults:         faultsAfter - faultsBefore,
		ReadLatMean:    m.ReadLatency.Mean(),
		ReadLatMax:     m.ReadLatency.Max(),
		Ops:            req.Ops,
	}
	if reg != nil {
		if scope.Active() {
			scope.Exit("run", fmt.Sprintf("%s/%s", req.Workload, req.Scheme),
				uint64(start), uint64(m.MaxCoreTime()), 0)
			scope.End(true)
		} else {
			reg.Span("run", fmt.Sprintf("%s/%s", req.Workload, req.Scheme),
				uint64(start), uint64(m.MaxCoreTime()), 0)
		}
		snap := reg.Snapshot()
		// Fold the whole-run legacy stats counters into the snapshot so the
		// stats.Set and telemetry-native metrics export through one pipe
		// (the name spaces are disjoint, so nothing double-counts).
		snap.AddCounters(after)
		res.Telemetry = snap
	}
	if jrn != nil {
		res.Journal = jrn.Drain()
	}
	if v := m.MC.IntegrityViolations(); v != 0 {
		return res, fmt.Errorf("core: %d integrity violations during %s/%s", v, req.Workload, req.Scheme)
	}
	return res, nil
}

// Parallelism caps the number of worker goroutines the batch entry points
// (RunBatch and everything built on it — RunGroup, RunPair, the figure
// sweeps) may use. Zero or negative means one worker per CPU. The cmd
// front-ends set it from their -parallel flag before any runs start; it is
// not meant to be changed while a batch is in flight.
var Parallelism = 0

// RunBatch executes a batch of independent requests on a bounded worker
// pool and returns the results in input order. Concurrency is safe because
// every Run boots a private kernel.System — machine, stats.Set, RNGs and
// all — so runs share no mutable state (the one cross-run global, the
// memory controller's chip-key sequence, is atomic and never influences
// measurements). Failures are aggregated: every request still runs, and
// the returned error (a *runner.BatchError) names each failed index, so
// one broken workload cannot kill a whole figure sweep.
func RunBatch(reqs []Request) ([]Result, error) {
	rs, err := runner.Map(Parallelism, reqs, func(_ int, r Request) (Result, error) {
		res, err := Run(r)
		// Feed the live observability view as runs complete; the canonical
		// merges below happen once the whole batch is in, in input order.
		if res.Telemetry != nil {
			telemetrySink.note(res.Telemetry)
		}
		if res.Journal != nil {
			journalSink.note(res.Journal.Events)
		}
		return res, err
	})
	// Fold the per-run parts into the sinks in *input* order — never
	// completion order — so the aggregates are identical at any Parallelism.
	// Failed runs carry no snapshot and no journal.
	telemetrySink.merge(len(rs), func(i int) *telemetry.Snapshot { return rs[i].Telemetry })
	journalSink.merge(len(rs), func(i int) []journal.Event {
		if rs[i].Journal == nil {
			return nil
		}
		return rs[i].Journal.Events
	})
	return rs, err
}

// RunPair runs the same workload under two schemes with identical seeds and
// returns (base, treatment). The two runs execute concurrently when
// Parallelism allows.
func RunPair(workload string, base, treatment Scheme, ops int, cfg *config.Config) (Result, Result, error) {
	rs, err := RunBatch([]Request{
		{Workload: workload, Scheme: base, Ops: ops, Cfg: cfg},
		{Workload: workload, Scheme: treatment, Ops: ops, Cfg: cfg},
	})
	if err != nil {
		return Result{}, Result{}, err
	}
	return rs[0], rs[1], nil
}

// Ratio returns t/b for the given metric extractor. A zero-over-zero ratio
// (e.g. NVM writes of a fully cached read workload) is reported as 1.0: the
// schemes are indistinguishable on that metric.
func Ratio(b, t Result, metric func(Result) float64) float64 {
	bv, tv := metric(b), metric(t)
	if bv == 0 {
		if tv == 0 {
			return 1
		}
		return 0
	}
	return tv / bv
}

// Metric extractors for figures.
var (
	MetricCycles = func(r Result) float64 { return float64(r.Cycles) }
	MetricReads  = func(r Result) float64 { return float64(r.NVMReads) }
	MetricWrites = func(r Result) float64 { return float64(r.NVMWrites) }
)
