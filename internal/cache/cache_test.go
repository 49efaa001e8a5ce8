package cache

import (
	"testing"
	"testing/quick"

	"fsencr/internal/config"
)

func line(i uint64) uint64 { return i * config.LineSize }

func TestMissThenHit(t *testing.T) {
	c := New("t", 8<<10, 8)
	if c.Lookup(line(1), false) {
		t.Fatal("hit on cold cache")
	}
	c.Insert(line(1), false)
	if !c.Lookup(line(1), false) {
		t.Fatal("miss after insert")
	}
	if c.Hits != 1 || c.Misses != 1 {
		t.Fatalf("stats hits=%d misses=%d", c.Hits, c.Misses)
	}
}

func TestLRUEviction(t *testing.T) {
	// One-set cache: 4 lines total, 4 ways.
	c := New("t", 4*config.LineSize, 4)
	for i := uint64(0); i < 4; i++ {
		c.Insert(line(i), false)
	}
	c.Lookup(line(0), false) // refresh 0; LRU is now 1
	v, ev := c.Insert(line(9), false)
	if !ev {
		t.Fatal("full set did not evict")
	}
	if v.LineAddr != line(1) {
		t.Fatalf("evicted %#x, want %#x", v.LineAddr, line(1))
	}
	if !c.Contains(line(0)) || c.Contains(line(1)) {
		t.Fatal("wrong victim removed")
	}
}

func TestDirtyVictim(t *testing.T) {
	c := New("t", 2*config.LineSize, 2)
	c.Insert(line(0), true)
	c.Insert(line(1), false)
	v, ev := c.Insert(line(2), false)
	if !ev || v.LineAddr != line(0) || !v.Dirty {
		t.Fatalf("dirty victim not reported: %+v %v", v, ev)
	}
}

func TestInsertExistingMergesDirty(t *testing.T) {
	c := New("t", 4*config.LineSize, 4)
	c.Insert(line(3), false)
	if _, ev := c.Insert(line(3), true); ev {
		t.Fatal("re-insert evicted")
	}
	if !c.IsDirty(line(3)) {
		t.Fatal("dirty bit lost on re-insert")
	}
	c.Insert(line(3), false)
	if !c.IsDirty(line(3)) {
		t.Fatal("dirty bit cleared by clean re-insert")
	}
}

func TestLookupMarkDirty(t *testing.T) {
	c := New("t", 4*config.LineSize, 4)
	c.Insert(line(0), false)
	c.Lookup(line(0), true)
	if !c.IsDirty(line(0)) {
		t.Fatal("markDirty lookup did not dirty the line")
	}
}

func TestInvalidate(t *testing.T) {
	c := New("t", 4*config.LineSize, 4)
	c.Insert(line(0), true)
	dirty, present := c.Invalidate(line(0))
	if !present || !dirty {
		t.Fatalf("invalidate returned %v %v", dirty, present)
	}
	if c.Contains(line(0)) {
		t.Fatal("line survived invalidate")
	}
	if _, present := c.Invalidate(line(0)); present {
		t.Fatal("double invalidate reported present")
	}
}

func TestClean(t *testing.T) {
	c := New("t", 4*config.LineSize, 4)
	c.Insert(line(0), true)
	c.Clean(line(0))
	if c.IsDirty(line(0)) {
		t.Fatal("Clean left line dirty")
	}
	if !c.Contains(line(0)) {
		t.Fatal("Clean dropped the line")
	}
}

func TestWalkValidAndClear(t *testing.T) {
	c := New("t", 8<<10, 8)
	c.Insert(line(1), true)
	c.Insert(line(2), false)
	got := map[uint64]bool{}
	c.WalkValid(func(a uint64, dirty bool) { got[a] = dirty })
	if len(got) != 2 || !got[line(1)] || got[line(2)] {
		t.Fatalf("walk got %v", got)
	}
	c.Clear()
	n := 0
	c.WalkValid(func(uint64, bool) { n++ })
	if n != 0 {
		t.Fatal("clear left valid lines")
	}
}

func TestSetIndexing(t *testing.T) {
	c := New("t", 8<<10, 8) // 16 sets
	// Lines that differ only in tag bits must land in the same set and
	// compete; lines in different sets must not.
	sets := c.Sets()
	a := line(0)
	b := line(uint64(sets)) // same set, different tag
	c.Insert(a, false)
	c.Insert(b, false)
	if !c.Contains(a) || !c.Contains(b) {
		t.Fatal("same-set lines evicted prematurely")
	}
}

func TestHitRate(t *testing.T) {
	c := New("t", 4*config.LineSize, 4)
	if c.HitRate() != 0 {
		t.Fatal("empty hit rate not 0")
	}
	c.Lookup(line(0), false)
	c.Insert(line(0), false)
	c.Lookup(line(0), false)
	if c.HitRate() != 0.5 {
		t.Fatalf("hit rate = %v", c.HitRate())
	}
}

func TestGeometryValidation(t *testing.T) {
	for _, bad := range []func(){
		func() { New("t", 0, 8) },
		func() { New("t", 8<<10, 0) },
		func() { New("t", 3*config.LineSize, 2) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("bad geometry accepted")
				}
			}()
			bad()
		}()
	}
}

func TestPropertyContainsAfterInsert(t *testing.T) {
	c := New("t", 32<<10, 8)
	f := func(addrs []uint32) bool {
		for _, a := range addrs {
			la := uint64(a) &^ (config.LineSize - 1)
			c.Insert(la, false)
			if !c.Contains(la) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestCapacityBound(t *testing.T) {
	c := New("t", 8<<10, 8) // 128 lines
	for i := uint64(0); i < 1000; i++ {
		c.Insert(line(i), false)
	}
	n := 0
	c.WalkValid(func(uint64, bool) { n++ })
	if n != 128 {
		t.Fatalf("valid lines = %d, capacity 128", n)
	}
}

// TestUnfilledCacheIsEmpty: until the first Insert a cache holds no entries
// and answers every query as an empty cache, while Lookup still counts its
// misses; New allocates the Cache and nothing else.
func TestUnfilledCacheIsEmpty(t *testing.T) {
	if n := testing.AllocsPerRun(10, func() { New("t", 8<<10, 8) }); n != 1 {
		t.Fatalf("New made %v allocations, want 1", n)
	}
	c := New("t", 8<<10, 8)
	if c.Lookup(line(1), true) || c.Lookup(line(2), false) || c.Misses != 2 || c.Hits != 0 {
		t.Fatalf("lookups on an unfilled cache: hits=%d misses=%d", c.Hits, c.Misses)
	}
	if c.Contains(line(1)) || c.IsDirty(line(1)) {
		t.Fatal("an unfilled cache holds line 1")
	}
	if dirty, present := c.Invalidate(line(1)); dirty || present {
		t.Fatalf("Invalidate on an unfilled cache = %v, %v", dirty, present)
	}
	c.Clean(line(1))
	c.Clear()
	c.WalkValid(func(uint64, bool) { t.Fatal("an unfilled cache walked a line") })
	if c.Filled() || c.entries != nil {
		t.Fatal("queries allocated the entries")
	}
	c.Insert(line(1), true)
	if !c.Filled() || !c.IsDirty(line(1)) {
		t.Fatal("the first Insert did not fill the cache")
	}
}
