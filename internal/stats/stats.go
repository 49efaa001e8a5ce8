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
