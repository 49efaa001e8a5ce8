package telemetry

import "sort"

// HistogramSnapshot is the frozen state of one histogram: the full
// log2-bucket vector plus count/sum/max. Buckets always has NumBuckets
// entries so merges are position-wise.
type HistogramSnapshot struct {
	Buckets []uint64 `json:"buckets"`
	Count   uint64   `json:"count"`
	Sum     uint64   `json:"sum"`
	Max     uint64   `json:"max"`
}

// Mean returns the mean observation, or 0 if empty.
func (h *HistogramSnapshot) Mean() float64 {
	if h.Count == 0 {
		return 0
	}
	return float64(h.Sum) / float64(h.Count)
}

// Quantile estimates the q-quantile (0 <= q <= 1) by locating the bucket
// holding the target rank and interpolating linearly within its value
// range. Log2 buckets bound the relative error at 2x; the top occupied
// bucket is additionally clamped by the recorded Max, which tightens the
// common p99/p999 case. Returns 0 for an empty histogram or nil receiver.
func (h *HistogramSnapshot) Quantile(q float64) float64 {
	if h == nil || h.Count == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := q * float64(h.Count-1)
	var cum uint64
	for i, n := range h.Buckets {
		if n == 0 {
			continue
		}
		if float64(cum+n) > rank {
			lo := float64(0)
			if i > 0 {
				lo = float64(uint64(1) << uint(i-1))
			}
			hi := float64(BucketBound(i))
			if h.Max > 0 && float64(h.Max) < hi {
				hi = float64(h.Max)
			}
			if hi < lo {
				hi = lo
			}
			frac := (rank - float64(cum)) / float64(n)
			return lo + frac*(hi-lo)
		}
		cum += n
	}
	return float64(h.Max)
}

// Snapshot is the frozen, mergeable state of one registry (or of a merged
// set of registries). It is a plain value: JSON-marshalling it is
// deterministic (encoding/json sorts map keys), which the harness relies
// on for byte-identical exports at any runner parallelism.
type Snapshot struct {
	Counters   map[string]uint64             `json:"counters"`
	Gauges     map[string]uint64             `json:"gauges,omitempty"`
	Histograms map[string]*HistogramSnapshot `json:"histograms,omitempty"`
	Spans      []Span                        `json:"spans,omitempty"`
	// SpanDrops counts spans overwritten in ring buffers; nonzero means
	// Spans is the most recent window, not the complete trace.
	SpanDrops uint64 `json:"span_drops,omitempty"`
	// Runs counts how many per-run snapshots were merged in (1 for a
	// fresh snapshot of a single registry).
	Runs uint64 `json:"runs"`
}

// NewSnapshot returns an empty snapshot ready to merge into.
func NewSnapshot() *Snapshot {
	return &Snapshot{
		Counters:   make(map[string]uint64),
		Gauges:     make(map[string]uint64),
		Histograms: make(map[string]*HistogramSnapshot),
	}
}

// Merge folds o into s: counters, histogram buckets and span-drop counts
// add; gauges sum (they are per-run occupancy readings, so the aggregate
// reads as a total across runs); spans concatenate in call order. Merging
// the same snapshots in the same order always yields the same result,
// which is what makes parallel sweeps reproducible: the harness merges in
// batch input order, not completion order.
func (s *Snapshot) Merge(o *Snapshot) {
	if o == nil {
		return
	}
	for name, v := range o.Counters {
		s.Counters[name] += v
	}
	for name, v := range o.Gauges {
		s.Gauges[name] += v
	}
	for name, oh := range o.Histograms {
		sh, ok := s.Histograms[name]
		if !ok {
			sh = &HistogramSnapshot{Buckets: make([]uint64, NumBuckets)}
			s.Histograms[name] = sh
		}
		for i, c := range oh.Buckets {
			sh.Buckets[i] += c
		}
		sh.Count += oh.Count
		sh.Sum += oh.Sum
		if oh.Max > sh.Max {
			sh.Max = oh.Max
		}
	}
	s.Spans = append(s.Spans, o.Spans...)
	s.SpanDrops += o.SpanDrops
	runs := o.Runs
	if runs == 0 {
		runs = 1
	}
	s.Runs += runs
}

// AddCounters folds a plain name->value map (e.g. a stats.Set snapshot)
// into the snapshot's counters, so the legacy counter registry and the
// telemetry-native metrics export through one pipe.
func (s *Snapshot) AddCounters(m map[string]uint64) {
	for name, v := range m {
		s.Counters[name] += v
	}
}

// Diff returns what changed from prev to cur: counter and histogram deltas
// (monotonic series; a shrinking value means the sink was reset, and the
// delta clamps to the new absolute value), gauges at their current level
// (they are occupancy readings, not rates). Spans are omitted. Either
// argument may be nil; a nil prev makes the diff equal cur's absolute state.
func Diff(prev, cur *Snapshot) *Snapshot {
	d := NewSnapshot()
	if cur == nil {
		return d
	}
	if prev == nil {
		prev = NewSnapshot()
	}
	for name, v := range cur.Counters {
		if p := prev.Counters[name]; p <= v {
			v -= p
		}
		d.Counters[name] = v
	}
	for name, v := range cur.Gauges {
		d.Gauges[name] = v
	}
	for name, ch := range cur.Histograms {
		ph := prev.Histograms[name]
		if ph == nil || ph.Count > ch.Count {
			ph = &HistogramSnapshot{Buckets: make([]uint64, NumBuckets)}
		}
		dh := &HistogramSnapshot{
			Buckets: make([]uint64, NumBuckets),
			Count:   ch.Count - ph.Count,
			Sum:     ch.Sum - ph.Sum,
			Max:     ch.Max,
		}
		for i, c := range ch.Buckets {
			dh.Buckets[i] = c - ph.Buckets[i]
		}
		d.Histograms[name] = dh
	}
	if prev.SpanDrops <= cur.SpanDrops {
		d.SpanDrops = cur.SpanDrops - prev.SpanDrops
	}
	if prev.Runs <= cur.Runs {
		d.Runs = cur.Runs - prev.Runs
	}
	return d
}

// WithoutSpans returns a shallow copy sharing the metric maps but carrying
// no spans — the shape the bench harness writes per-figure, where traces
// would dominate the file size.
func (s *Snapshot) WithoutSpans() *Snapshot {
	c := *s
	c.Spans = nil
	c.SpanDrops = 0
	return &c
}

// SpanCategories returns the distinct span categories present, sorted.
func (s *Snapshot) SpanCategories() []string {
	seen := make(map[string]bool)
	for _, sp := range s.Spans {
		seen[sp.Cat] = true
	}
	out := make([]string, 0, len(seen))
	for c := range seen {
		out = append(out, c)
	}
	sort.Strings(out)
	return out
}
