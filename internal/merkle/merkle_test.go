package merkle

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"testing/quick"

	"fsencr/internal/telemetry"
)

func content(b byte) []byte {
	c := make([]byte, 64)
	for i := range c {
		c[i] = b
	}
	return c
}

func TestVerifyAfterUpdate(t *testing.T) {
	tr := New(8, 4)
	tr.Update(10, content(1))
	if !tr.Verify(10, content(1)) {
		t.Fatal("fresh update does not verify")
	}
	if tr.Verify(10, content(2)) {
		t.Fatal("wrong content verified")
	}
}

func TestDefaultLeavesVerifyZero(t *testing.T) {
	tr := New(8, 4)
	if !tr.Verify(100, make([]byte, 64)) {
		t.Fatal("untouched leaf does not verify zero content")
	}
}

func TestRootChangesOnUpdate(t *testing.T) {
	tr := New(8, 4)
	r0 := tr.Root()
	tr.Update(0, content(1))
	r1 := tr.Root()
	if r0 == r1 {
		t.Fatal("root unchanged after update")
	}
	tr.Update(511, content(2))
	if tr.Root() == r1 {
		t.Fatal("root unchanged after second update")
	}
}

func TestTamperDetection(t *testing.T) {
	tr := New(8, 4)
	tr.Update(7, content(3))
	// Attacker replays leaf 7's content at leaf 8.
	if tr.Verify(8, content(3)) {
		t.Fatal("replayed content verified at wrong leaf")
	}
}

func TestUpdateIsolation(t *testing.T) {
	tr := New(8, 4)
	tr.Update(1, content(1))
	tr.Update(2, content(2))
	if !tr.Verify(1, content(1)) || !tr.Verify(2, content(2)) {
		t.Fatal("sibling update corrupted earlier leaf")
	}
}

func TestNumLeaves(t *testing.T) {
	tr := New(8, 9)
	if tr.NumLeaves() != 8*8*8*8*8*8*8*8 {
		t.Fatalf("NumLeaves = %d", tr.NumLeaves())
	}
	if tr.Levels() != 9 || tr.Arity() != 8 {
		t.Fatal("geometry accessors wrong")
	}
}

func TestPathNodes(t *testing.T) {
	tr := New(8, 9)
	path := tr.PathNodes(12345)
	if len(path) != 7 { // levels 1..7 (root excluded)
		t.Fatalf("path length = %d", len(path))
	}
	if path[0].Index != 12345/8 {
		t.Fatalf("first parent = %d", path[0].Index)
	}
	for i := 1; i < len(path); i++ {
		if path[i].Level != path[i-1].Level+1 {
			t.Fatal("path levels not ascending")
		}
		if path[i].Index != path[i-1].Index/8 {
			t.Fatal("path indices not contracting by arity")
		}
	}
}

func TestRebuildMatchesIncremental(t *testing.T) {
	incr := New(8, 4)
	leaves := map[int][]byte{
		0:   content(1),
		63:  content(2),
		64:  content(3),
		511: content(4),
	}
	for idx, c := range leaves {
		incr.Update(idx, c)
	}
	rebuilt := New(8, 4)
	rebuilt.Rebuild(leaves)
	if incr.Root() != rebuilt.Root() {
		t.Fatal("rebuild root differs from incremental root")
	}
}

func TestRebuildDropsStaleState(t *testing.T) {
	tr := New(8, 4)
	tr.Update(5, content(9))
	tr.Rebuild(map[int][]byte{})
	empty := New(8, 4)
	if tr.Root() != empty.Root() {
		t.Fatal("rebuild with no leaves != fresh tree")
	}
}

func TestVerifyOutOfRange(t *testing.T) {
	tr := New(8, 3)
	if tr.Verify(-1, content(0)) || tr.Verify(tr.NumLeaves(), content(0)) {
		t.Fatal("out-of-range leaf verified")
	}
}

func TestUpdateOutOfRangePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-range update did not panic")
		}
	}()
	New(8, 3).Update(10000, content(0))
}

func TestPropertyRandomUpdatesVerify(t *testing.T) {
	tr := New(8, 4)
	written := make(map[int]byte)
	f := func(idx uint16, val byte) bool {
		i := int(idx) % tr.NumLeaves()
		tr.Update(i, content(val))
		written[i] = val
		for j, v := range written {
			if !tr.Verify(j, content(v)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestBinaryTree(t *testing.T) {
	tr := New(2, 5) // 16 leaves
	if tr.NumLeaves() != 16 {
		t.Fatalf("NumLeaves = %d", tr.NumLeaves())
	}
	tr.Update(15, content(1))
	if !tr.Verify(15, content(1)) {
		t.Fatal("binary tree verify failed")
	}
}

// eagerUpdate drives tr exactly like the pre-write-back tree: every update
// is propagated to the root immediately.
func eagerUpdate(tr *Tree, idx int, c []byte) {
	tr.Update(idx, c)
	tr.Flush()
}

// TestLazyMatchesEagerInterleavings drives identical random
// Update/Verify/Root interleavings through a lazily flushed tree and an
// eagerly flushed reference and asserts byte-identical roots and identical
// Verify verdicts at every observation point — including Verify of leaves
// whose ancestors are dirty in the lazy tree at call time.
func TestLazyMatchesEagerInterleavings(t *testing.T) {
	lazy := New(8, 4)
	eager := New(8, 4)
	rng := rand.New(rand.NewSource(20260805))
	written := make(map[int]byte)
	lastWritten := -1
	for step := 0; step < 3000; step++ {
		switch rng.Intn(6) {
		case 0, 1, 2: // update (majority: keep the lazy tree dirty)
			idx := rng.Intn(lazy.NumLeaves())
			v := byte(rng.Intn(256))
			lazy.Update(idx, content(v))
			eagerUpdate(eager, idx, content(v))
			written[idx] = v
			lastWritten = idx
		case 3: // verify the most recent leaf: its ancestors are dirty
			if lastWritten < 0 {
				continue
			}
			lv := lazy.Verify(lastWritten, content(written[lastWritten]))
			ev := eager.Verify(lastWritten, content(written[lastWritten]))
			if !lv || lv != ev {
				t.Fatalf("step %d: dirty-ancestor verify lazy=%v eager=%v", step, lv, ev)
			}
		case 4: // verify wrong content: both must reject
			idx := rng.Intn(lazy.NumLeaves())
			bad := content(written[idx] + 1)
			if lv, ev := lazy.Verify(idx, bad), eager.Verify(idx, bad); lv || lv != ev {
				t.Fatalf("step %d: wrong-content verify lazy=%v eager=%v", step, lv, ev)
			}
		case 5:
			if lazy.Root() != eager.Root() {
				t.Fatalf("step %d: roots diverged", step)
			}
		}
	}
	if lazy.Root() != eager.Root() {
		t.Fatal("final roots diverged")
	}
}

func TestVerifyFlushesDirtySiblingPaths(t *testing.T) {
	tr := New(8, 4)
	// Two siblings under one parent, updated without any observation in
	// between: verifying either must see a consistent path even though the
	// other's update is still unpropagated when Verify is called.
	tr.Update(8, content(1))
	tr.Update(9, content(2))
	if tr.Dirty() != 2 {
		t.Fatalf("Dirty() = %d before observation", tr.Dirty())
	}
	if !tr.Verify(8, content(1)) || !tr.Verify(9, content(2)) {
		t.Fatal("verify failed with a dirty sibling path")
	}
	if tr.Dirty() != 0 {
		t.Fatalf("Dirty() = %d after Verify", tr.Dirty())
	}
}

func TestFlushDeduplicatesSharedParents(t *testing.T) {
	reg := telemetry.New()
	tr := New(8, 4)
	tr.Instrument(reg)
	// 64 leaves spanning 8 shared level-1 parents, flushed once.
	for i := 0; i < 64; i++ {
		tr.Update(i, content(byte(i)))
	}
	root := tr.Root()
	snap := reg.Snapshot()
	if got := snap.Counters["merkle.flushes"]; got != 1 {
		t.Fatalf("merkle.flushes = %d, want 1", got)
	}
	h := snap.Histograms["merkle.dirty_leaves_per_flush"]
	if h == nil || h.Count != 1 || h.Sum != 64 {
		t.Fatalf("dirty_leaves_per_flush snapshot = %+v", h)
	}
	// The deduplicated flush must equal per-update propagation.
	ref := New(8, 4)
	for i := 0; i < 64; i++ {
		eagerUpdate(ref, i, content(byte(i)))
	}
	if root != ref.Root() {
		t.Fatal("deduplicated flush root differs from eager root")
	}
}

func TestRebuildDiscardsPendingUpdates(t *testing.T) {
	tr := New(8, 4)
	tr.Update(3, content(9))
	tr.Rebuild(map[int][]byte{5: content(1)})
	if tr.Dirty() != 0 {
		t.Fatal("Rebuild left pending updates")
	}
	ref := New(8, 4)
	eagerUpdate(ref, 5, content(1))
	if tr.Root() != ref.Root() {
		t.Fatal("rebuild root carries pre-rebuild dirty state")
	}
}

func TestAppendPathNodesMatchesPathNodes(t *testing.T) {
	tr := New(8, 9)
	scratch := make([]NodeID, 0, tr.Levels())
	for _, idx := range []int{0, 12345, tr.NumLeaves() - 1} {
		scratch = tr.AppendPathNodes(scratch[:0], idx)
		want := tr.PathNodes(idx)
		if len(scratch) != len(want) {
			t.Fatalf("leaf %d: len %d != %d", idx, len(scratch), len(want))
		}
		for i := range want {
			if scratch[i] != want[i] {
				t.Fatalf("leaf %d node %d: %+v != %+v", idx, i, scratch[i], want[i])
			}
		}
	}
}

// The parent tree: Update, Flush and Verify as they were before Verify
// stopped hashing interior nodes. Flush propagates the dirty set itself,
// and Verify flushes, then re-hashes the whole path to the root. It is the
// reference TestVerifyLeafMatchesFullWalk drives the tree against.

func (t *Tree) parentUpdate(idx int, content []byte) {
	t.checkLeaf(idx)
	t.tUpdates.Inc()
	t.tHashDepth.Observe(0)
	t.nodes[0][idx] = hashLeaf(content)
	t.dirty[idx] = struct{}{}
}

func (t *Tree) parentFlush() {
	if len(t.dirty) == 0 {
		return
	}
	t.tFlushes.Inc()
	t.tDirtyLeafs.Observe(uint64(len(t.dirty)))
	frontier := make([]int, 0, len(t.dirty))
	for idx := range t.dirty {
		frontier = append(frontier, idx)
	}
	clear(t.dirty)
	sort.Ints(frontier)
	for lvl := 1; lvl < t.levels; lvl++ {
		n := 0
		for _, idx := range frontier {
			parent := idx / t.arity
			if n > 0 && frontier[n-1] == parent {
				continue
			}
			frontier[n] = parent
			n++
			t.nodes[lvl][parent] = t.hashChildren(lvl, parent)
		}
		frontier = frontier[:n]
	}
}

func (t *Tree) parentRoot() Hash {
	t.parentFlush()
	return t.node(t.levels-1, 0)
}

func (t *Tree) parentVerify(idx int, content []byte) bool {
	t.parentFlush()
	t.tVerifies.Inc()
	if idx < 0 || idx >= t.NumLeaves() {
		t.tVerFails.Inc()
		return false
	}
	if hashLeaf(content) != t.node(0, idx) {
		t.tVerFails.Inc()
		t.tHashDepth.Observe(0)
		return false
	}
	for lvl := 1; lvl < t.levels; lvl++ {
		idx /= t.arity
		if t.hashChildren(lvl, idx) != t.node(lvl, idx) {
			t.tVerFails.Inc()
			t.tHashDepth.Observe(uint64(lvl))
			return false
		}
	}
	t.tHashDepth.Observe(uint64(t.levels - 1))
	return true
}

// merkleSeries are the six telemetry series a tree feeds.
var merkleSeries = []string{"merkle.verifies", "merkle.verify_failures", "merkle.updates",
	"merkle.flushes", "merkle.dirty_leaves_per_flush", "merkle.hash_depth"}

func sameSeries(t *testing.T, step int, got, want *telemetry.Registry) {
	t.Helper()
	g, w := got.Snapshot(), want.Snapshot()
	for _, name := range merkleSeries {
		gc, gok := g.Counters[name]
		wc, wok := w.Counters[name]
		gh, wh := g.Histograms[name], w.Histograms[name]
		if gok != wok || gc != wc || !reflect.DeepEqual(gh, wh) {
			t.Fatalf("step %d: %s = %d %+v, parent tree %d %+v", step, name, gc, gh, wc, wh)
		}
	}
}

// TestVerifyLeafMatchesFullWalk drives the tree and the parent tree with
// one seeded stream of Update, Verify (clean, tampered, out of range),
// Root, Flush and Rebuild, and asserts equal verdicts, an equal root at
// every root read, an equal Dirty() and equal telemetry throughout: the
// leaf-only Verify and the hashing deferred to root reads change no
// observable.
func TestVerifyLeafMatchesFullWalk(t *testing.T) {
	for _, levels := range []int{4, 9} {
		tr, ref := New(8, levels), New(8, levels)
		reg, refReg := telemetry.New(), telemetry.New()
		tr.Instrument(reg)
		ref.Instrument(refReg)
		rng := rand.New(rand.NewSource(int64(20261017 + levels)))
		// Draw leaves from a window of 512 so siblings and shared parents
		// recur; the 9-level tree also gets its far corners.
		leaf := func() int {
			if rng.Intn(8) == 0 {
				return rng.Intn(tr.NumLeaves())
			}
			return rng.Intn(512)
		}
		written := make(map[int]byte)
		for step := 0; step < 4000; step++ {
			switch op := rng.Intn(20); {
			case op < 8:
				idx, v := leaf(), byte(rng.Intn(256))
				tr.Update(idx, content(v))
				ref.parentUpdate(idx, content(v))
				written[idx] = v
			case op < 11: // clean: a written or an untouched leaf
				idx := leaf()
				c := content(written[idx])
				if got, want := tr.Verify(idx, c), ref.parentVerify(idx, c); !got || got != want {
					t.Fatalf("levels %d step %d: clean verify of %d = %v, parent tree %v", levels, step, idx, got, want)
				}
			case op < 14: // tampered
				idx := leaf()
				c := content(written[idx] + 1)
				if got, want := tr.Verify(idx, c), ref.parentVerify(idx, c); got || got != want {
					t.Fatalf("levels %d step %d: tampered verify of %d = %v, parent tree %v", levels, step, idx, got, want)
				}
			case op < 15:
				idx := []int{-1 - rng.Intn(8), tr.NumLeaves() + rng.Intn(8)}[rng.Intn(2)]
				if tr.Verify(idx, content(0)) || ref.parentVerify(idx, content(0)) {
					t.Fatalf("levels %d step %d: out-of-range leaf %d verified", levels, step, idx)
				}
			case op < 17:
				if tr.Root() != ref.parentRoot() {
					t.Fatalf("levels %d step %d: roots differ", levels, step)
				}
			case op < 19:
				tr.Flush()
				ref.parentFlush()
			default: // recover a subset: the dropped leaf reverts to default
				for idx := range written {
					if rng.Intn(4) == 0 {
						delete(written, idx)
					}
				}
				leaves := make(map[int][]byte, len(written))
				for idx, v := range written {
					leaves[idx] = content(v)
				}
				tr.Rebuild(leaves)
				ref.Rebuild(leaves)
			}
			if tr.Dirty() != ref.Dirty() {
				t.Fatalf("levels %d step %d: Dirty() = %d, parent tree %d", levels, step, tr.Dirty(), ref.Dirty())
			}
			sameSeries(t, step, reg, refReg)
		}
		if tr.Root() != ref.parentRoot() {
			t.Fatalf("levels %d: final roots differ", levels)
		}
		sameSeries(t, -1, reg, refReg)
	}
}

// TestMerkleHashCounts pins the SHA-256 work of each operation: one hash
// per Update and per Verify (the leaf), levels-1 for the first root read
// after updates under one level-1 parent (one per interior level), and
// none for a root read with nothing stale.
func TestMerkleHashCounts(t *testing.T) {
	for _, levels := range []int{4, 9} {
		tr := New(8, levels)
		count := func(what string, want uint64, op func()) {
			t.Helper()
			before := tr.hashes
			op()
			if got := tr.hashes - before; got != want {
				t.Fatalf("levels %d: %s hashed %d times, want %d", levels, what, got, want)
			}
		}
		for k := 1; k <= 8; k++ {
			for i := 0; i < k; i++ {
				count("Update", 1, func() { tr.Update(16+i, content(byte(k))) })
			}
			count("Verify", 1, func() { tr.Verify(16, content(byte(k))) })
			count("Verify of a tampered leaf", 1, func() { tr.Verify(17, content(0xff)) })
			count("first Root", uint64(levels-1), func() { tr.Root() })
			count("second Root", 0, func() { tr.Root() })
		}
	}
}
