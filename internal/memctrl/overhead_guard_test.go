package memctrl

import (
	"math"
	"os"
	"sort"
	"testing"

	"fsencr/internal/audit"
	"fsencr/internal/config"
	"fsencr/internal/telemetry"
)

// benchNilHist lives at package scope so the compiler cannot prove it nil
// and fold the no-op Observe away: the guard must time the branch the real
// call sites take when no registry is attached.
var benchNilHist *telemetry.Histogram

// bestNsPerOp runs a benchmark three times and keeps the fastest run,
// discarding scheduler noise. Sub-nanosecond resolution matters for the
// no-op hook measurement, which BenchmarkResult.NsPerOp truncates to zero.
func bestNsPerOp(bench func(b *testing.B)) float64 {
	v := math.MaxFloat64
	for i := 0; i < 3; i++ {
		r := testing.Benchmark(bench)
		if ns := float64(r.T.Nanoseconds()) / float64(r.N); ns < v {
			v = ns
		}
	}
	return v
}

// writeLineGapTolerance pins the WriteLine/ReadLine ns/op host-time ratio.
// A steady-state ReadLine is a PCM access, two cached counter fetches and
// two single-line pads; a WriteLine adds, per counter block it bumps (two in
// FsEncr mode), one 64-byte encode and one SHA-256 leaf hash for the lazy
// Bonsai tree — 78% of its host time, where the pads are 3% — so the ratio
// measures 7.1-8.6x (ten runs, median 7.9x). Eager per-write propagation,
// which this guard exists to catch, rehashes the full 9-level path of both
// blocks — sixteen more SHA-256 calls, ~4 us — and lands past 30x; the
// tolerance leaves headroom for machine variance below that.
const writeLineGapTolerance = 12.0

// TestWriteLineGapGuard is the companion CI gate to the bench-regression
// check: it pins the *relative* cost of the WriteLine hot path against
// ReadLine, which is stable across machines where absolute ns/op baselines
// are not. Skipped unless FSENCR_OVERHEAD_GUARD=1 (runs real benchmarks).
func TestWriteLineGapGuard(t *testing.T) {
	if os.Getenv("FSENCR_OVERHEAD_GUARD") == "" {
		t.Skip("set FSENCR_OVERHEAD_GUARD=1 (or run `make overhead-guard`) to enable")
	}
	readNs := bestNsPerOp(BenchmarkReadLine)
	writeNs := bestNsPerOp(BenchmarkWriteLine)
	ratio := writeNs / readNs
	t.Logf("WriteLine %.1f ns/op / ReadLine %.1f ns/op = %.2fx (tolerance %.1fx)",
		writeNs, readNs, ratio, writeLineGapTolerance)
	if ratio > writeLineGapTolerance {
		t.Errorf("WriteLine/ReadLine gap %.2fx exceeds %.1fx: eager per-write tree propagation regressed the hot path",
			ratio, writeLineGapTolerance)
	}
}

// TestPageGapGuard is the CI gate for the batched page datapath's whole
// reason to exist: one WritePage must cost at most half of 64 WriteLine
// calls in host time (the issue's acceptance bar is 2x; steady state
// measures ~4-5x, so this fails only on a real batching regression — a
// per-line counter fetch, key lookup, or Merkle touch sneaking back into
// the page loop). Skipped unless FSENCR_OVERHEAD_GUARD=1.
func TestPageGapGuard(t *testing.T) {
	if os.Getenv("FSENCR_OVERHEAD_GUARD") == "" {
		t.Skip("set FSENCR_OVERHEAD_GUARD=1 (or run `make overhead-guard`) to enable")
	}
	lineNs := bestNsPerOp(BenchmarkWriteLine)
	pageNs := bestNsPerOp(BenchmarkWritePage)
	serial := 64 * lineNs
	t.Logf("WritePage %.0f ns/op vs 64x WriteLine %.0f ns/op = %.2fx batching win (must be >= 2x)",
		pageNs, serial, serial/pageNs)
	if pageNs > serial/2 {
		t.Errorf("WritePage %.0f ns/op exceeds half of 64x WriteLine (%.0f ns): page batching regressed",
			pageNs, serial)
	}
}

// medianNsPerOp runs a benchmark five times and keeps the median run: a
// ratio of two medians does not tighten the way a ratio of two minima does
// when one side happens to catch a quiet moment.
func medianNsPerOp(bench func(b *testing.B)) float64 {
	var ns [5]float64
	for i := range ns {
		r := testing.Benchmark(bench)
		ns[i] = float64(r.T.Nanoseconds()) / float64(r.N)
	}
	sort.Float64s(ns[:])
	return ns[len(ns)/2]
}

// writePageGapTolerance pins the WritePage/ReadPage host-time ratio in
// FsEncr mode. Both build the same two pads, but since the pads became one
// multi-block kernel call each they are a third of a page read and a sixth
// of a page write, no longer the common bulk: what the two share now is the
// PCM timing model (pcm.access with addr.Decompose, ~40% of a read, ~25% of
// a write) and one ECC tag per line (~18% / ~9%). What a write adds on top
// — the stop-loss write-throughs' own trips through pcm.access, counter
// bumps with their Merkle leaf hashes, 64 persistence-domain heap slots —
// is about one more page read's worth, so the ratio measures 1.8-2.4x
// (median 2.05x over ten runs of this guard on a busy 2-core host; 1.93x
// quiet). The write-path regressions this guard exists for cost a page
// write 6-10 us each — a page read or two — and would put it past 3x.
const writePageGapTolerance = 2.8

// TestWritePageGapGuard fails when a page write's bookkeeping outgrows the
// work it shares with a page read: a per-line scan of the write queue, a
// per-event map access or a per-stop-loss-point device call in the page loop
// each push the ratio past the tolerance. A ratio, so host speed cancels.
// Skipped unless FSENCR_OVERHEAD_GUARD=1.
func TestWritePageGapGuard(t *testing.T) {
	if os.Getenv("FSENCR_OVERHEAD_GUARD") == "" {
		t.Skip("set FSENCR_OVERHEAD_GUARD=1 (or run `make overhead-guard`) to enable")
	}
	readNs := medianNsPerOp(BenchmarkReadPage)
	writeNs := medianNsPerOp(BenchmarkWritePage)
	ratio := writeNs / readNs
	t.Logf("WritePage %.0f ns/op / ReadPage %.0f ns/op = %.2fx (tolerance %.1fx)",
		writeNs, readNs, ratio, writePageGapTolerance)
	if ratio > writePageGapTolerance {
		t.Errorf("WritePage/ReadPage gap %.2fx exceeds %.1fx: write-path bookkeeping has grown past a page read's worth",
			ratio, writePageGapTolerance)
	}
}

// benchNilAudit mirrors benchNilHist for the audit plane's detached
// recorder.
var benchNilAudit *audit.Log

// maxAuditHooksPerPageOp bounds how many audit emissions one page
// operation can reach (ReadPageInto and WritePage each emit once; slack
// for future hooks).
const maxAuditHooksPerPageOp = 4

// TestAuditOverheadGuard pins the audit plane's disabled cost: with
// auditing off (the default) every Append on the page datapath is a nil
// receiver and must degrade to one predictable branch, so a page op's
// worth of detached audit hooks may not amount to more than 3% of an
// unaudited ReadPage/WritePage. Skipped unless FSENCR_OVERHEAD_GUARD=1.
func TestAuditOverheadGuard(t *testing.T) {
	if os.Getenv("FSENCR_OVERHEAD_GUARD") == "" {
		t.Skip("set FSENCR_OVERHEAD_GUARD=1 (or run `make overhead-guard`) to enable")
	}

	nilAppend := bestNsPerOp(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			benchNilAudit.Append(uint64(i), audit.OpReadPage, uint64(i), 1, 2)
		}
	})
	budget := nilAppend * maxAuditHooksPerPageOp

	for _, op := range []struct {
		name  string
		bench func(b *testing.B)
	}{
		{"ReadPage", BenchmarkReadPage},
		{"WritePage", BenchmarkWritePage},
	} {
		opNs := bestNsPerOp(op.bench)
		limit := 0.03 * opNs
		t.Logf("%s: %.1f ns/op; %d detached audit hooks cost %.2f ns (limit %.2f ns)",
			op.name, opNs, maxAuditHooksPerPageOp, budget, limit)
		if budget > limit {
			t.Errorf("%s: disabled-audit budget %.2f ns exceeds 3%% of %.1f ns/op",
				op.name, budget, opNs)
		}
	}
}

// benchNilScope and benchIdleScope are the two disabled-tracing shapes the
// datapath sees: no scope attached at all (nil pointer, uninstrumented) and
// a scope attached but with no request being traced (the steady state of an
// instrumented shard between sampled requests). Package scope keeps the
// compiler from folding the checks away.
var (
	benchNilScope  *telemetry.TraceScope
	benchIdleScope = telemetry.NewTraceScope()
)

// maxTraceHooksPerPageOp bounds how many Active() gates one page operation
// crosses (memctrl entry/exit, pcm, machine — roughly six today), with
// slack for future hooks.
const maxTraceHooksPerPageOp = 8

// TestTraceOverheadGuard pins the request-trace plane's disabled cost: when
// no trace is active — scope nil or merely idle — every hook on the page
// datapath is a single predictable Active() branch, so a page op's worth of
// them may not amount to more than 3% of a ReadPage/WritePage. Skipped
// unless FSENCR_OVERHEAD_GUARD=1.
func TestTraceOverheadGuard(t *testing.T) {
	if os.Getenv("FSENCR_OVERHEAD_GUARD") == "" {
		t.Skip("set FSENCR_OVERHEAD_GUARD=1 (or run `make overhead-guard`) to enable")
	}

	nilActive := bestNsPerOp(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if benchNilScope.Active() {
				b.Fatal("nil scope active")
			}
		}
	})
	idleActive := bestNsPerOp(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if benchIdleScope.Active() {
				b.Fatal("idle scope active")
			}
		}
	})
	hookNs := nilActive
	if idleActive > hookNs {
		hookNs = idleActive // the attached-but-idle shape is the worst case
	}
	budget := hookNs * maxTraceHooksPerPageOp

	for _, op := range []struct {
		name  string
		bench func(b *testing.B)
	}{
		{"ReadPage", BenchmarkReadPage},
		{"WritePage", BenchmarkWritePage},
	} {
		opNs := bestNsPerOp(op.bench)
		limit := 0.03 * opNs
		t.Logf("%s: %.1f ns/op; %d inactive trace hooks cost %.2f ns (limit %.2f ns)",
			op.name, opNs, maxTraceHooksPerPageOp, budget, limit)
		if budget > limit {
			t.Errorf("%s: disabled-tracing budget %.2f ns exceeds 3%% of %.1f ns/op",
				op.name, budget, opNs)
		}
	}
}

// noopHookLimitNs bounds one detached telemetry hook. With no registry
// attached every handle is nil and a recording is one predictable branch:
// 0.35-0.40 ns measured. A hook that grows an interface call costs 1.5 ns or
// more, an atomic 5, a lock 10 — all past the limit on any host.
const noopHookLimitNs = 0.5

// hooksPerLineOp runs the line benchmarks' workload with a registry attached
// and returns the recordings made per op.
func hooksPerLineOp(write bool) float64 {
	c, las := benchFsEncrController()
	reg := telemetry.New()
	c.Instrument(reg)
	before := reg.Snapshot()
	const ops = 4096
	now := config.Cycle(0)
	for i := 0; i < ops; i++ {
		if write {
			c.WriteLine(now, las[i%len(las)], lineOf(3))
		} else {
			benchSink, _ = c.ReadLine(now, las[i%len(las)])
		}
		now += 200
	}
	d := telemetry.Diff(before, reg.Snapshot())
	n := uint64(len(d.Spans)) + d.SpanDrops
	for _, v := range d.Counters {
		n += v
	}
	for _, h := range d.Histograms {
		n += h.Count
	}
	return float64(n) / ops
}

// TestTelemetryOverheadGuard is the CI overhead gate (make overhead-guard)
// for detached telemetry on the line datapath. What a line op pays for it is
// hooks reached x cost of a no-op hook. TestHooksPerLineOp pins the first
// factor exactly; this guard pins the second: it fails when the no-op path
// grows a lock, an allocation or an interface call (the per-hook cost
// jumps) — and not when the op itself gets cheaper: a budget stated as a
// share of ReadLine's ns/op fails on untouched telemetry whenever the
// datapath speeds up. Skipped unless FSENCR_OVERHEAD_GUARD=1: it runs a real
// benchmark and takes seconds.
func TestTelemetryOverheadGuard(t *testing.T) {
	if os.Getenv("FSENCR_OVERHEAD_GUARD") == "" {
		t.Skip("set FSENCR_OVERHEAD_GUARD=1 (or run `make overhead-guard`) to enable")
	}

	nilObserve := bestNsPerOp(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			benchNilHist.Observe(uint64(i))
		}
	})
	t.Logf("no-op hook %.2f ns (limit %.2f ns)", nilObserve, noopHookLimitNs)
	if nilObserve > noopHookLimitNs {
		t.Errorf("no-op telemetry hook costs %.2f ns, over %.2f ns: the detached path is no longer one predictable branch",
			nilObserve, noopHookLimitNs)
	}
}

// TestHooksPerLineOp pins the telemetry recordings one steady-state line op
// makes, exactly: a ReadLine makes 5 (mc.read_cycles, mc.key_lookup_cycles,
// ott.table_hits, the PCM queue and service histograms), a WriteLine 10 (the
// Merkle leaf updates and the stop-loss write-through add theirs). A change
// that adds or drops one counts it and re-pins the number.
func TestHooksPerLineOp(t *testing.T) {
	for _, op := range []struct {
		name  string
		write bool
		hooks float64
	}{
		{"ReadLine", false, 5},
		{"WriteLine", true, 10},
	} {
		if hooks := hooksPerLineOp(op.write); hooks != op.hooks {
			t.Errorf("%s reaches %.3f telemetry hooks per op, want %.0f", op.name, hooks, op.hooks)
		}
	}
}
