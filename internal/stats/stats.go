// Package stats provides the counter registry used across the simulator and
// the table/series formatting used by the benchmark harness to print the
// paper's figures.
package stats

// Set is a named collection of integer counters. It is not safe for
// concurrent use; the simulated machine is single-goroutine by design.
//
// A counter exists in two states. Resolving a handle (Counter) allocates its
// cell but leaves the name invisible; the first Add through any handle
// registers it. Snapshot lists registered names only, so what a run exports
// depends on which events happened, not on which handles a component
// resolved when it was built.
type Set struct {
	cells map[string]*cell
}

type cell struct {
	v          uint64
	registered bool
}

// NewSet returns an empty counter set.
func NewSet() *Set {
	return &Set{cells: make(map[string]*cell)}
}

// Counter is a pre-resolved handle on one named counter: a component
// resolves its handles once, when it is built, and an increment is then an
// add through a pointer instead of a string-hashed map access per event.
// Copies of a handle, and handles resolved again under the same name, share
// one cell. The zero Counter is not usable.
type Counter struct{ c *cell }

// Counter resolves the handle for name. The name stays absent from the set
// until the handle's first Add.
func (s *Set) Counter(name string) Counter {
	c := s.cells[name]
	if c == nil {
		c = &cell{}
		s.cells[name] = c
	}
	return Counter{c}
}

// Add increments the counter by delta, registering its name on the first
// call (a zero delta registers too).
func (h Counter) Add(delta uint64) {
	h.c.registered = true
	h.c.v += delta
}

// Get returns the value of counter name (zero if never touched).
func (s *Set) Get(name string) uint64 {
	if c := s.cells[name]; c != nil {
		return c.v
	}
	return 0
}

// Snapshot returns a copy of the registered counters.
func (s *Set) Snapshot() map[string]uint64 {
	out := make(map[string]uint64, len(s.cells))
	for name, c := range s.cells {
		if c.registered {
			out[name] = c.v
		}
	}
	return out
}
