package memctrl

import (
	"math"
	"os"
	"sort"
	"testing"

	"fsencr/internal/audit"
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
// Before the write-back Bonsai tree the gap was ~13x (every write eagerly
// recomputed the full 9-level path); with lazy propagation and the
// zero-alloc hash/encode path it sits around 3x. The tolerance leaves
// headroom for machine variance while still failing CI if eager per-write
// propagation (or a comparably expensive regression) ever sneaks back in.
const writeLineGapTolerance = 6.0

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
// FsEncr mode. A page write builds the same two pads as a page read; what it
// adds is counter bumps, ECC tags, 64 persistence-domain slots and the
// stop-loss write-throughs. While those cost more than the AES work the
// ratio sat at 2.0-2.1x; with the write queue a heap, the write-throughs one
// burst and the counters on handles it measures ~1.35-1.5x.
const writePageGapTolerance = 1.7

// TestWritePageGapGuard fails when a page write's bookkeeping grows back to
// the size of its cryptography: a per-line scan of the write queue, a
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
		t.Errorf("WritePage/ReadPage gap %.2fx exceeds %.1fx: write-path bookkeeping outweighs the pads again",
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

// maxHooksPerLineOp bounds how many telemetry recordings a single
// ReadLine/WriteLine can reach (latency histogram, metadata fetch, BMT
// walk depth, key lookup, PCM service + queue, spans), with slack for
// future hooks.
const maxHooksPerLineOp = 16

// TestTelemetryOverheadGuard is the CI overhead gate (make overhead-guard):
// with no registry attached every telemetry handle is nil and each hook
// must cost one predictable branch, so maxHooksPerLineOp no-op recordings
// may not amount to more than 3% of an uninstrumented ReadLine/WriteLine.
// If the no-op path ever grows a lock, an allocation, or an interface
// call, the measured per-hook cost jumps and this fails. Skipped unless
// FSENCR_OVERHEAD_GUARD=1: it runs real benchmarks and takes seconds.
func TestTelemetryOverheadGuard(t *testing.T) {
	if os.Getenv("FSENCR_OVERHEAD_GUARD") == "" {
		t.Skip("set FSENCR_OVERHEAD_GUARD=1 (or run `make overhead-guard`) to enable")
	}

	nilObserve := bestNsPerOp(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			benchNilHist.Observe(uint64(i))
		}
	})
	budget := nilObserve * maxHooksPerLineOp

	for _, op := range []struct {
		name  string
		bench func(b *testing.B)
	}{
		{"ReadLine", BenchmarkReadLine},
		{"WriteLine", BenchmarkWriteLine},
	} {
		opNs := bestNsPerOp(op.bench)
		limit := 0.03 * opNs
		t.Logf("%s: %.1f ns/op; %d no-op hooks cost %.2f ns (limit %.2f ns)",
			op.name, opNs, maxHooksPerLineOp, budget, limit)
		if budget > limit {
			t.Errorf("%s: no-op telemetry budget %.2f ns exceeds 3%% of %.1f ns/op",
				op.name, budget, opNs)
		}
	}
}
