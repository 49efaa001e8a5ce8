// Package cache implements the set-associative, write-back caches of the
// simulated machine: the per-core L1/L2, the shared L3, and the memory
// controller's dedicated metadata cache (Table III).
//
// The cache tracks tags, validity, dirtiness, and LRU ordering. It does not
// store line contents: in this simulator, data for lines held anywhere in
// the hierarchy lives in a single coherent view owned by the machine, and
// the caches decide *timing* (hit level) and *traffic* (what gets written
// back to the memory controller, and when).
package cache

import (
	"fmt"

	"fsencr/internal/config"
)

type entry struct {
	tag     uint64
	valid   bool
	dirty   bool
	lastUse uint64
}

// Cache is one set-associative cache. Not safe for concurrent use.
type Cache struct {
	name     string
	sets     [][]entry
	ways     int
	numSets  int
	lineBits uint
	clock    uint64 // monotonic use counter for LRU

	Hits      uint64
	Misses    uint64
	Evictions uint64
}

// New builds a cache of sizeBytes with the given associativity over
// config.LineSize lines. sizeBytes must be a multiple of ways*LineSize and
// the resulting set count must be a power of two.
func New(name string, sizeBytes, ways int) *Cache {
	if sizeBytes <= 0 || ways <= 0 {
		panic("cache: non-positive geometry")
	}
	lines := sizeBytes / config.LineSize
	if lines%ways != 0 {
		panic(fmt.Sprintf("cache %s: %d lines not divisible by %d ways", name, lines, ways))
	}
	numSets := lines / ways
	if numSets&(numSets-1) != 0 {
		panic(fmt.Sprintf("cache %s: set count %d not a power of two", name, numSets))
	}
	c := &Cache{
		name:     name,
		ways:     ways,
		numSets:  numSets,
		lineBits: log2(config.LineSize),
	}
	c.sets = make([][]entry, numSets)
	backing := make([]entry, numSets*ways)
	for i := range c.sets {
		c.sets[i], backing = backing[:ways], backing[ways:]
	}
	return c
}

// Name returns the cache's diagnostic name.
func (c *Cache) Name() string { return c.name }

// Sets returns the number of sets.
func (c *Cache) Sets() int { return c.numSets }

func (c *Cache) locate(lineAddr uint64) (setIdx int, tag uint64) {
	idx := lineAddr >> c.lineBits
	return int(idx % uint64(c.numSets)), idx / uint64(c.numSets)
}

// Lookup probes for the line containing addr. On a hit it refreshes LRU
// state, optionally marks the line dirty, and returns true.
func (c *Cache) Lookup(lineAddr uint64, markDirty bool) bool {
	set, tag := c.locate(lineAddr)
	c.clock++
	for i := range c.sets[set] {
		e := &c.sets[set][i]
		if e.valid && e.tag == tag {
			e.lastUse = c.clock
			if markDirty {
				e.dirty = true
			}
			c.Hits++
			return true
		}
	}
	c.Misses++
	return false
}

// Contains probes without disturbing LRU or statistics.
func (c *Cache) Contains(lineAddr uint64) bool {
	set, tag := c.locate(lineAddr)
	for i := range c.sets[set] {
		e := &c.sets[set][i]
		if e.valid && e.tag == tag {
			return true
		}
	}
	return false
}

// Victim describes a line evicted by Insert.
type Victim struct {
	LineAddr uint64
	Dirty    bool
}

// Insert fills the line containing addr, evicting the LRU way if the set is
// full. It returns the evicted line, if any. Inserting a line that is
// already present just updates its dirty bit.
func (c *Cache) Insert(lineAddr uint64, dirty bool) (Victim, bool) {
	set, tag := c.locate(lineAddr)
	c.clock++
	var victim *entry
	for i := range c.sets[set] {
		e := &c.sets[set][i]
		if e.valid && e.tag == tag {
			e.lastUse = c.clock
			e.dirty = e.dirty || dirty
			return Victim{}, false
		}
		if !e.valid {
			if victim == nil || victim.valid {
				victim = e
			}
			continue
		}
		if victim == nil || (victim.valid && e.lastUse < victim.lastUse) {
			victim = e
		}
	}
	var out Victim
	evicted := false
	if victim.valid {
		out = Victim{LineAddr: c.lineAddr(set, victim.tag), Dirty: victim.dirty}
		evicted = true
		c.Evictions++
	}
	victim.tag = tag
	victim.valid = true
	victim.dirty = dirty
	victim.lastUse = c.clock
	return out, evicted
}

func (c *Cache) lineAddr(set int, tag uint64) uint64 {
	return (tag*uint64(c.numSets) + uint64(set)) << c.lineBits
}

// Invalidate drops the line if present, returning whether it was dirty.
func (c *Cache) Invalidate(lineAddr uint64) (wasDirty, wasPresent bool) {
	set, tag := c.locate(lineAddr)
	for i := range c.sets[set] {
		e := &c.sets[set][i]
		if e.valid && e.tag == tag {
			e.valid = false
			return e.dirty, true
		}
	}
	return false, false
}

// Clean clears the dirty bit of the line if present (CLWB semantics: the
// line is written back but retained).
func (c *Cache) Clean(lineAddr uint64) {
	set, tag := c.locate(lineAddr)
	for i := range c.sets[set] {
		e := &c.sets[set][i]
		if e.valid && e.tag == tag {
			e.dirty = false
			return
		}
	}
}

// IsDirty reports whether the line is present and dirty.
func (c *Cache) IsDirty(lineAddr uint64) bool {
	set, tag := c.locate(lineAddr)
	for i := range c.sets[set] {
		e := &c.sets[set][i]
		if e.valid && e.tag == tag {
			return e.dirty
		}
	}
	return false
}

// WalkValid calls fn for every valid line. fn must not mutate the cache.
func (c *Cache) WalkValid(fn func(lineAddr uint64, dirty bool)) {
	for set := range c.sets {
		for i := range c.sets[set] {
			e := &c.sets[set][i]
			if e.valid {
				fn(c.lineAddr(set, e.tag), e.dirty)
			}
		}
	}
}

// Clear invalidates everything (a crash powering off SRAM).
func (c *Cache) Clear() {
	for set := range c.sets {
		for i := range c.sets[set] {
			c.sets[set][i] = entry{}
		}
	}
}

// HitRate returns hits / (hits + misses), or 0 if never accessed.
func (c *Cache) HitRate() float64 {
	total := c.Hits + c.Misses
	if total == 0 {
		return 0
	}
	return float64(c.Hits) / float64(total)
}

func log2(v uint64) uint {
	var n uint
	for v > 1 {
		v >>= 1
		n++
	}
	return n
}
