package telemetry

import "math/bits"

// TraceScope is the per-goroutine request-trace recorder. A shard's owner
// goroutine (or one simulation run) owns exactly one scope; components
// below it cache the scope pointer at Instrument time and check Active()
// on their hot paths — one predictable branch when no request is being
// traced, exactly like the nil-handle discipline of Counter/Histogram.
//
// While a scope is active, every span recorded through its registry
// (Registry.Span) is annotated with the current trace ID, a fresh span ID
// and the enclosing span's ID, and buffered in the scope instead of going
// straight to the ring. End(keep=true) flushes the buffered spans into the
// ring; End(keep=false) discards them (tail sampling). Explicit phase
// boundaries use Enter/Exit to become *enclosing* spans whose children are
// whatever was recorded while they were open.
//
// All IDs are deterministic: span IDs come from a per-trace counter, so a
// given schedule of recorded spans yields byte-identical exports at any
// runner parallelism. A nil *TraceScope is inert: Active reports false,
// Enter returns 0, every other method is a no-op.
type TraceScope struct {
	reg     *Registry
	active  bool
	traceID uint64
	nextID  uint64
	stack   []uint64
	buf     []Span
	maxBuf  int
	drops   uint64
}

// NewTraceScope returns an inactive scope buffering at most
// DefaultSpanCapacity spans per trace.
func NewTraceScope() *TraceScope {
	return &TraceScope{maxBuf: DefaultSpanCapacity}
}

// Active reports whether a trace is currently being recorded. This is the
// hot-path gate: nil receiver and inactive scope both answer false in a
// branch or two.
func (ts *TraceScope) Active() bool { return ts != nil && ts.active }

// Begin starts recording a new trace. parent is the span ID of the remote
// caller's enclosing span (0 when the trace starts here); the first
// Enter/Exit pair becomes the local root, linked to that parent.
func (ts *TraceScope) Begin(traceID, parent uint64) {
	if ts == nil {
		return
	}
	ts.active = true
	ts.traceID = traceID
	ts.nextID = 0
	ts.stack = ts.stack[:0]
	ts.buf = ts.buf[:0]
	if parent != 0 {
		ts.stack = append(ts.stack, parent)
	}
}

// Enter opens an enclosing span: spans recorded until the matching Exit
// are its children. Returns the new span's ID (0 when inactive).
func (ts *TraceScope) Enter() uint64 {
	if !ts.Active() {
		return 0
	}
	ts.nextID++
	id := ts.nextID
	ts.stack = append(ts.stack, id)
	return id
}

// Exit closes the innermost open span, emitting it with the given
// category, name and cycle bounds. Calls must pair with Enter.
func (ts *TraceScope) Exit(cat, name string, start, end uint64, tid int) {
	if !ts.Active() || len(ts.stack) == 0 {
		return
	}
	id := ts.stack[len(ts.stack)-1]
	ts.stack = ts.stack[:len(ts.stack)-1]
	parent := uint64(0)
	if len(ts.stack) > 0 {
		parent = ts.stack[len(ts.stack)-1]
	}
	dur := uint64(0)
	if end > start {
		dur = end - start
	}
	ts.push(Span{
		Cat: cat, Name: name, Start: start, Dur: dur, Tid: tid,
		TraceID: ts.traceID, SpanID: id, ParentID: parent,
	})
}

// child annotates and buffers a leaf span recorded through the registry
// while the scope is active.
func (ts *TraceScope) child(sp Span) {
	ts.nextID++
	sp.TraceID = ts.traceID
	sp.SpanID = ts.nextID
	if len(ts.stack) > 0 {
		sp.ParentID = ts.stack[len(ts.stack)-1]
	}
	ts.push(sp)
}

func (ts *TraceScope) push(sp Span) {
	if len(ts.buf) >= ts.maxBuf {
		ts.drops++
		return
	}
	ts.buf = append(ts.buf, sp)
}

// End finishes the trace: keep=true flushes the buffered spans into the
// owning registry's ring (in recording order), keep=false discards them.
// Either way the scope deactivates and buffer drops carry over to the
// ring's drop counter, so truncation is never silent.
func (ts *TraceScope) End(keep bool) {
	if ts == nil {
		return
	}
	ts.active = false
	if keep && ts.reg != nil && ts.reg.spans != nil {
		for i := range ts.buf {
			ts.reg.spans.record(ts.buf[i])
		}
		ts.reg.spans.addDrops(ts.drops)
	}
	ts.drops = 0
	ts.buf = ts.buf[:0]
	ts.stack = ts.stack[:0]
}

// MintTraceID derives a deterministic, never-zero trace ID from a caller
// identity hash and a per-caller request counter. The mixing keeps the
// probabilistic tail-sampling decision (hash mod N) well distributed even
// though the inputs are sequential.
func MintTraceID(base, n uint64) uint64 {
	id := mix64(base + n*0x9e3779b97f4a7c15)
	if id == 0 {
		id = 1
	}
	return id
}

// mix64 is the splitmix64 finalizer.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// TailSampler makes the keep/drop decision at trace end, when the outcome
// and total duration are known. Policy, in order:
//
//  1. Error traces are always kept.
//  2. Traces in the slowest decile of durations seen so far (at log2
//     bucket granularity, tracked by a streaming histogram) are kept.
//  3. Otherwise a trace is kept probabilistically, 1 in keepEvery, by
//     hashing the trace ID — deterministic for a given ID.
//
// Every decision increments exactly one of the kept/dropped counters, so
// kept+dropped always equals the number of completed sampled traces and
// dropped work is never silently invisible. The sampler is single-writer
// (under the shard's machine lock); the counters are the usual atomics.
type TailSampler struct {
	keepEvery uint64
	durs      [NumBuckets]uint64
	total     uint64
	kept      *Counter
	dropped   *Counter
}

// NewTailSampler returns a sampler keeping 1 in keepEvery non-slow,
// non-error traces (keepEvery <= 1 keeps everything).
func NewTailSampler(keepEvery uint64, kept, dropped *Counter) *TailSampler {
	if keepEvery < 1 {
		keepEvery = 1
	}
	return &TailSampler{keepEvery: keepEvery, kept: kept, dropped: dropped}
}

// Keep decides whether the finished trace is retained.
func (s *TailSampler) Keep(traceID, dur uint64, isErr bool) bool {
	if s == nil {
		return true
	}
	s.total++
	b := bits.Len64(dur)
	s.durs[b]++
	keep := isErr || s.slowDecile(b) || s.keepEvery <= 1 || mix64(traceID)%s.keepEvery == 0
	if keep {
		s.kept.Inc()
	} else {
		s.dropped.Inc()
	}
	return keep
}

// slowDecile reports whether duration bucket b falls in the slowest ~10%
// of durations observed so far (including the one just recorded).
func (s *TailSampler) slowDecile(b int) bool {
	budget := s.total / 10
	if budget == 0 {
		budget = 1
	}
	var above uint64
	for i := NumBuckets - 1; i >= b; i-- {
		above += s.durs[i]
		if above > budget {
			return false
		}
	}
	return true
}
