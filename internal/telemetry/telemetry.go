// Package telemetry is the cross-layer observability subsystem of the
// simulator: a registry of zero-allocation, atomics-based counters, gauges
// and log-bucketed histograms, plus a lightweight span tracer backed by a
// fixed-size ring buffer.
//
// Design constraints, in order:
//
//   - The hot path must be cheap. A live counter increment is one atomic
//     add on a pre-resolved pointer (no map lookup, no lock, no
//     allocation); a histogram observation is a bits.Len64, two atomic adds
//     and an atomic load, plus a store when it sets a new max. Both stay
//     well under the 20 ns/event budget. A run of events recorded in one
//     call (a page burst's 64 line accesses) observes into a plain Batch
//     and folds it into the Histogram once with Add; a lone event observes
//     directly, as zeroing a Batch costs more than the atomics it saves.
//   - The subsystem must compile out. Every metric handle is nil-safe: an
//     uninstrumented component carries nil *Counter/*Histogram fields and
//     pays exactly one predictable branch per event. A nil *Registry is
//     the no-op recorder — all its methods work and record nothing — so
//     instrumented code never checks whether telemetry is enabled.
//   - Aggregation must be deterministic. Every value recorded is derived
//     from simulated cycles, never host time, and Snapshot/Merge are
//     order-stable, so merging per-run registries in request order yields
//     byte-identical exports regardless of runner parallelism.
//
// Components obtain handles once, at construction or Instrument() time,
// and hold the raw pointers on their hot paths. The experiment harness
// snapshots each run's registry after the run and merges snapshots in
// batch input order (see internal/core).
package telemetry

import (
	"math/bits"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing event count. The zero value is
// ready to use; a nil Counter is a no-op.
type Counter struct{ v atomic.Uint64 }

// Inc adds one.
func (c *Counter) Inc() {
	if c != nil {
		c.v.Add(1)
	}
}

// Add adds d.
func (c *Counter) Add(d uint64) {
	if c != nil {
		c.v.Add(d)
	}
}

// Value returns the current count (0 for a nil Counter).
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a last-value metric (table occupancy, queue depth). A nil Gauge
// is a no-op.
type Gauge struct{ v atomic.Uint64 }

// Set records the current value.
func (g *Gauge) Set(v uint64) {
	if g != nil {
		g.v.Store(v)
	}
}

// Value returns the last value set (0 for a nil Gauge).
func (g *Gauge) Value() uint64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// NumBuckets is the histogram bucket count: bucket i holds observations v
// with bits.Len64(v) == i, i.e. bucket 0 holds v == 0 and bucket i >= 1
// holds 2^(i-1) <= v < 2^i. Log bucketing keeps the structure fixed-size
// and allocation-free for any value range.
const NumBuckets = 65

// Histogram is a log2-bucketed distribution. The zero value is ready to
// use; a nil Histogram is a no-op. The observation count is not stored
// separately — it is the sum of the buckets, computed at snapshot time —
// and the max is maintained load/compare/store rather than CAS: each run's
// registry has a single writer (the simulation goroutine), so the relaxed
// update can never lose a value there, and both halves are still atomic.
type Histogram struct {
	buckets [NumBuckets]atomic.Uint64
	sum     atomic.Uint64
	max     atomic.Uint64
}

// Observe records one value.
func (h *Histogram) Observe(v uint64) {
	if h == nil {
		return
	}
	h.buckets[bits.Len64(v)].Add(1)
	h.sum.Add(v)
	if v > h.max.Load() {
		h.max.Store(v)
	}
}

// Batch gathers observations bound for one Histogram without atomics, for
// a caller that records a run of events at a time and folds them in with
// Histogram.Add. Bucket counts, sum and max do not depend on order, so the
// folded histogram equals one fed value by value. The zero value is empty.
type Batch struct {
	buckets  [NumBuckets]uint64
	sum, max uint64
}

// Observe records one value in the batch.
func (b *Batch) Observe(v uint64) {
	b.buckets[bits.Len64(v)]++
	b.sum += v
	b.max = max(b.max, v)
}

// Add folds batch b into h: the same state as observing b's values one by
// one.
func (h *Histogram) Add(b *Batch) {
	if h == nil {
		return
	}
	for i, n := range b.buckets {
		if n != 0 {
			h.buckets[i].Add(n)
		}
	}
	h.sum.Add(b.sum)
	if b.max > h.max.Load() {
		h.max.Store(b.max)
	}
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	var n uint64
	for i := range h.buckets {
		n += h.buckets[i].Load()
	}
	return n
}

// BucketBound returns the inclusive upper bound of bucket i.
func BucketBound(i int) uint64 {
	if i <= 0 {
		return 0
	}
	if i >= 64 {
		return ^uint64(0)
	}
	return 1<<uint(i) - 1
}

// DefaultSpanCapacity is the span ring size of a fresh registry: large
// enough for a useful chrome://tracing view of one run, small enough that
// a per-run registry stays a fixed, modest allocation.
const DefaultSpanCapacity = 4096

// Registry holds the named metrics and the span ring of one simulation.
// Handle resolution (Counter/Gauge/Histogram) takes a mutex and may
// allocate; it is meant for construction/Instrument time only. The handles
// themselves are lock-free. A nil *Registry is the no-op recorder: all
// methods are safe and record nothing.
type Registry struct {
	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
	spans    *spanRing
	// scope, when attached, intercepts Span calls while a request trace
	// is active (see TraceScope). Set once before components Instrument
	// and never reassigned, so cached Scope() pointers stay valid.
	scope *TraceScope
}

// New returns an empty registry with the default span capacity.
func New() *Registry { return NewWithSpanCapacity(DefaultSpanCapacity) }

// NewWithSpanCapacity returns an empty registry whose span ring holds up
// to cap spans (cap <= 0 disables span recording entirely).
func NewWithSpanCapacity(cap int) *Registry {
	r := &Registry{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		hists:    make(map[string]*Histogram),
	}
	if cap > 0 {
		r.spans = newSpanRing(cap)
	}
	return r
}

// Counter returns (creating if needed) the counter with the given name.
// Returns nil — the no-op counter — on a nil registry.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns (creating if needed) the gauge with the given name.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns (creating if needed) the histogram with the given name.
func (r *Registry) Histogram(name string) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.hists[name]
	if !ok {
		h = &Histogram{}
		r.hists[name] = h
	}
	return h
}

// AttachTraceScope binds a request-trace scope to the registry: while the
// scope is active, Span calls are annotated with trace/span/parent IDs and
// buffered in the scope for the tail-sampling decision instead of going
// straight to the ring. Attach before components Instrument — they cache
// the scope pointer (via Scope) once, and the pointer must stay stable.
func (r *Registry) AttachTraceScope(ts *TraceScope) {
	if r == nil || ts == nil {
		return
	}
	ts.reg = r
	r.scope = ts
}

// Scope returns the attached trace scope (nil when none — and a nil
// *TraceScope is inert, so components cache it unconditionally).
func (r *Registry) Scope() *TraceScope {
	if r == nil {
		return nil
	}
	return r.scope
}

// Span records one completed span. Cat groups spans into chrome://tracing
// categories ("memctrl", "ott", "kernel", "kvstore", ...); start and end
// are simulated cycles; tid is a logical thread (core) id. No-op on a nil
// registry or when the ring is disabled. While an attached trace scope is
// active the span is routed through it — annotated with trace IDs and
// buffered until the trace's keep/drop decision.
func (r *Registry) Span(cat, name string, start, end uint64, tid int) {
	if r == nil || r.spans == nil {
		return
	}
	dur := uint64(0)
	if end > start {
		dur = end - start
	}
	sp := Span{Cat: cat, Name: name, Start: start, Dur: dur, Tid: tid}
	if ts := r.scope; ts.Active() {
		ts.child(sp)
		return
	}
	r.spans.record(sp)
}

// Snapshot captures the registry's current state as a plain value suitable
// for merging and export. Metric names are not interpreted; ordering is
// imposed at export time, so two registries that recorded the same events
// snapshot identically.
func (r *Registry) Snapshot() *Snapshot {
	s := NewSnapshot()
	s.Runs = 1
	if r == nil {
		return s
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for name, c := range r.counters {
		s.Counters[name] = c.Value()
	}
	for name, g := range r.gauges {
		s.Gauges[name] = g.Value()
	}
	for name, h := range r.hists {
		s.Histograms[name] = snapshotHistogram(h)
	}
	if r.spans != nil {
		s.Spans = r.spans.snapshot()
		s.SpanDrops = r.spans.drops
	}
	return s
}

func snapshotHistogram(h *Histogram) *HistogramSnapshot {
	hs := &HistogramSnapshot{
		Sum: h.sum.Load(),
		Max: h.max.Load(),
	}
	hs.Buckets = make([]uint64, NumBuckets)
	for i := range h.buckets {
		hs.Buckets[i] = h.buckets[i].Load()
		hs.Count += hs.Buckets[i]
	}
	return hs
}
