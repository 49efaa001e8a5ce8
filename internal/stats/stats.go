// Package stats provides the counter registry used across the simulator and
// the table/series formatting used by the benchmark harness to print the
// paper's figures.
package stats

import (
	"fmt"
	"sort"
	"strings"
)

// Set is a named collection of integer counters. It is not safe for
// concurrent use; the simulated machine is single-goroutine by design.
//
// A counter exists in two states. Resolving a handle (Counter) allocates its
// cell but leaves the name invisible; the first increment through any handle,
// or a Set by name, registers it. Everything the set reports — Names,
// Snapshot, String — lists registered names only, so what a run exports
// depends on which events happened, not on which handles a component
// resolved when it was built.
type Set struct {
	cells map[string]*cell
	order []string // registered names, in first-touch order
}

type cell struct {
	v          uint64
	registered bool
	name       string
	set        *Set
}

// NewSet returns an empty counter set.
func NewSet() *Set {
	return &Set{cells: make(map[string]*cell)}
}

func (s *Set) cell(name string) *cell {
	c := s.cells[name]
	if c == nil {
		c = &cell{name: name, set: s}
		s.cells[name] = c
	}
	return c
}

func (c *cell) register() {
	c.registered = true
	c.set.order = append(c.set.order, c.name)
}

// Counter is a pre-resolved handle on one named counter: a component
// resolves its handles once, when it is built, and an increment is then an
// add through a pointer instead of a string-hashed map access per event.
// Copies of a handle, and handles resolved again under the same name, share
// one cell. The zero Counter is not usable.
type Counter struct{ c *cell }

// Counter resolves the handle for name. The name stays absent from the set
// until the handle's first Add.
func (s *Set) Counter(name string) Counter { return Counter{s.cell(name)} }

// Add increments the counter by delta, registering its name on the first
// call (a zero delta registers too).
func (h Counter) Add(delta uint64) {
	if !h.c.registered {
		h.c.register()
	}
	h.c.v += delta
}

// Get returns the value of counter name (zero if never touched).
func (s *Set) Get(name string) uint64 {
	if c := s.cells[name]; c != nil {
		return c.v
	}
	return 0
}

// Set assigns counter name to v.
func (s *Set) Set(name string, v uint64) {
	c := s.cell(name)
	if !c.registered {
		c.register()
	}
	c.v = v
}

// Names returns the counter names in first-touch order.
func (s *Set) Names() []string {
	out := make([]string, len(s.order))
	copy(out, s.order)
	return out
}

// Snapshot returns a copy of all counters.
func (s *Set) Snapshot() map[string]uint64 {
	out := make(map[string]uint64, len(s.order))
	for _, name := range s.order {
		out[name] = s.cells[name].v
	}
	return out
}

// Reset zeroes every counter but keeps the registry; live handles keep
// counting into the same cells.
func (s *Set) Reset() {
	for _, c := range s.cells {
		c.v = 0
	}
}

// String renders the set sorted by name, one counter per line.
func (s *Set) String() string {
	names := s.Names()
	sort.Strings(names)
	var b strings.Builder
	for _, n := range names {
		fmt.Fprintf(&b, "%-32s %d\n", n, s.cells[n].v)
	}
	return b.String()
}

// Histogram is a fixed-bucket latency histogram.
type Histogram struct {
	bounds []uint64 // ascending upper bounds; last bucket is overflow
	counts []uint64
	total  uint64
	sum    uint64
	max    uint64
}

// NewHistogram returns a histogram with the given ascending bucket upper
// bounds; values above the last bound land in an overflow bucket.
func NewHistogram(bounds ...uint64) *Histogram {
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic("stats: histogram bounds must be strictly ascending")
		}
	}
	return &Histogram{bounds: bounds, counts: make([]uint64, len(bounds)+1)}
}

// Observe records one value.
func (h *Histogram) Observe(v uint64) {
	i := sort.Search(len(h.bounds), func(i int) bool { return v <= h.bounds[i] })
	h.counts[i]++
	h.total++
	h.sum += v
	if v > h.max {
		h.max = v
	}
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 { return h.total }

// Mean returns the mean of observations, or 0 if empty.
func (h *Histogram) Mean() float64 {
	if h.total == 0 {
		return 0
	}
	return float64(h.sum) / float64(h.total)
}

// Max returns the largest observation.
func (h *Histogram) Max() uint64 { return h.max }

// Buckets returns (upper bound, count) pairs, with ^uint64(0) as the
// overflow bucket's bound.
func (h *Histogram) Buckets() ([]uint64, []uint64) {
	b := append([]uint64(nil), h.bounds...)
	b = append(b, ^uint64(0))
	c := append([]uint64(nil), h.counts...)
	return b, c
}
