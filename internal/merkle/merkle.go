// Package merkle implements the 8-ary Bonsai Merkle Tree that protects the
// integrity of the security metadata region (MECB, FECB, and the encrypted
// OTT region). The root never leaves the processor; any tamper or replay of
// metadata read from memory is detected as a root mismatch (§III-G).
//
// The tree hashes real content (SHA-256): tampering with a counter block in
// the simulated NVM genuinely fails verification. It is stored sparsely:
// untouched subtrees collapse to precomputed default hashes, so a 9-level
// 8-ary tree covering 16.7M metadata blocks costs memory only for the
// blocks a workload actually touches.
//
// Propagation is write-back, mirroring §III-G's treatment of cached tree
// nodes as trusted: Update records only the new leaf hash and marks the
// leaf dirty and stale; the internal path up to the root is recomputed
// lazily when the root is read (Root, Flush), deduplicating shared parents
// (64 line writes to one page collapse into a single path recompute), so
// the root read is byte-identical to an eagerly propagated tree's and
// covers every prior update. Interior nodes never leave the chip, so
// Verify checks only what an attacker can reach, the fetched leaf, and
// hashes nothing above it.
package merkle

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"sort"

	"fsencr/internal/obsplane/journal"
	"fsencr/internal/telemetry"
)

// Hash is a tree node digest.
type Hash [32]byte

// Tree is a sparse N-ary Merkle tree with a fixed number of levels.
// Level 0 holds leaf hashes; level Levels()-1 holds the single root.
type Tree struct {
	arity    int
	levels   int
	nodes    []map[int]Hash // one sparse map per level
	defaults []Hash         // default hash of an untouched node per level

	// dirty holds the leaves updated since the last observation (Verify,
	// Root, Flush, Rebuild): what merkle.flushes and
	// merkle.dirty_leaves_per_flush account. stale holds the leaves whose
	// internal paths have not been propagated yet; only a root read
	// (Root, Flush) hashes them, and Rebuild drops them.
	dirty map[int]struct{}
	stale map[int]struct{}
	// flushScratch is the reusable parent-frontier worklist of Flush, so a
	// flush costs no per-call slice allocations in steady state.
	flushScratch []int
	// hashes counts SHA-256 invocations on the tree's own nodes.
	hashes uint64

	tVerifies   *telemetry.Counter
	tVerFails   *telemetry.Counter
	tUpdates    *telemetry.Counter
	tHashDepth  *telemetry.Histogram
	tFlushes    *telemetry.Counter
	tDirtyLeafs *telemetry.Histogram

	// Security-event journal plus the owner-supplied simulated-cycle clock
	// (the tree itself has no notion of time).
	jrn    *journal.Journal
	jclock func() uint64
}

// AttachJournal attaches a security-event journal and the simulated-cycle
// clock events are stamped with. A nil journal detaches.
func (t *Tree) AttachJournal(j *journal.Journal, clock func() uint64) {
	t.jrn = j
	t.jclock = clock
}

func (t *Tree) jcycle() uint64 {
	if t.jclock == nil {
		return 0
	}
	return t.jclock()
}

// Instrument attaches telemetry handles. A nil registry detaches.
func (t *Tree) Instrument(reg *telemetry.Registry) {
	t.tVerifies = reg.Counter("merkle.verifies")
	t.tVerFails = reg.Counter("merkle.verify_failures")
	t.tUpdates = reg.Counter("merkle.updates")
	t.tHashDepth = reg.Histogram("merkle.hash_depth")
	t.tFlushes = reg.Counter("merkle.flushes")
	t.tDirtyLeafs = reg.Histogram("merkle.dirty_leaves_per_flush")
}

// New builds an all-default tree with the given arity and level count
// (Table III: arity 8, 9 levels -> 8^8 leaves of coverage).
func New(arity, levels int) *Tree {
	if arity < 2 || levels < 2 {
		panic("merkle: need arity >= 2 and levels >= 2")
	}
	t := &Tree{arity: arity, levels: levels}
	t.nodes = make([]map[int]Hash, levels)
	for i := range t.nodes {
		t.nodes[i] = make(map[int]Hash)
	}
	t.dirty = make(map[int]struct{})
	t.stale = make(map[int]struct{})
	t.defaults = make([]Hash, levels)
	var zero [64]byte
	t.defaults[0] = hashLeaf(zero[:])
	for lvl := 1; lvl < levels; lvl++ {
		t.defaults[lvl] = hashChildrenOf(lvl, func(int) Hash { return t.defaults[lvl-1] }, arity)
	}
	return t
}

// Arity returns the tree fan-out.
func (t *Tree) Arity() int { return t.arity }

// Levels returns the number of levels including leaves and root.
func (t *Tree) Levels() int { return t.levels }

// NumLeaves returns the leaf coverage of the tree.
func (t *Tree) NumLeaves() int {
	n := 1
	for i := 1; i < t.levels; i++ {
		n *= t.arity
	}
	return n
}

// Root returns the current root (held inside the processor), flushing
// first so the returned value covers every pending leaf update.
func (t *Tree) Root() Hash {
	t.Flush()
	return t.node(t.levels-1, 0)
}

func (t *Tree) node(lvl, idx int) Hash {
	if h, ok := t.nodes[lvl][idx]; ok {
		return h
	}
	return t.defaults[lvl]
}

// scratchArity bounds the fan-out the one-shot stack-buffer hash path
// handles; wider trees fall back to streaming SHA-256. The paper's tree is
// arity 8 (Table III).
const scratchArity = 16

func hashLeaf(content []byte) Hash {
	// One-shot hash over a stack scratch buffer: sha256.Sum256 never
	// allocates, unlike a fresh sha256.New() per node. Counter blocks and
	// OTT buckets are 64 B; the fallback covers oversized bucket chains.
	var buf [1 + 256]byte
	if len(content) < len(buf) {
		buf[0] = 0x00 // leaf domain separator
		n := copy(buf[1:], content)
		return sha256.Sum256(buf[:1+n])
	}
	h := sha256.New()
	h.Write([]byte{0x00})
	h.Write(content)
	var out Hash
	h.Sum(out[:0])
	return out
}

func hashPrefix(buf []byte, lvl int) {
	buf[0] = 0x01 // internal domain separator
	binary.LittleEndian.PutUint32(buf[1:], uint32(lvl))
}

func hashChildrenOf(lvl int, child func(i int) Hash, arity int) Hash {
	if arity <= scratchArity {
		var buf [5 + scratchArity*32]byte
		hashPrefix(buf[:], lvl)
		off := 5
		for i := 0; i < arity; i++ {
			c := child(i)
			copy(buf[off:], c[:])
			off += 32
		}
		return sha256.Sum256(buf[:off])
	}
	h := sha256.New()
	var pre [5]byte
	hashPrefix(pre[:], lvl)
	h.Write(pre[:])
	for i := 0; i < arity; i++ {
		c := child(i)
		h.Write(c[:])
	}
	var out Hash
	h.Sum(out[:0])
	return out
}

// leafHash is hashLeaf counted in t.hashes.
func (t *Tree) leafHash(content []byte) Hash {
	t.hashes++
	return hashLeaf(content)
}

// hashChildren is the flush hot path: the closure-free variant of
// hashChildrenOf, reading children straight out of the node maps into a
// stack buffer.
func (t *Tree) hashChildren(lvl, idx int) Hash {
	t.hashes++
	lo := idx * t.arity
	if t.arity <= scratchArity {
		var buf [5 + scratchArity*32]byte
		hashPrefix(buf[:], lvl)
		off := 5
		for i := 0; i < t.arity; i++ {
			c := t.node(lvl-1, lo+i)
			copy(buf[off:], c[:])
			off += 32
		}
		return sha256.Sum256(buf[:off])
	}
	return hashChildrenOf(lvl, func(i int) Hash { return t.node(lvl-1, lo+i) }, t.arity)
}

func (t *Tree) checkLeaf(idx int) {
	if idx < 0 || idx >= t.NumLeaves() {
		panic(fmt.Sprintf("merkle: leaf %d out of range [0,%d)", idx, t.NumLeaves()))
	}
}

// Update records the new content hash for leaf idx and marks the leaf
// dirty and stale. The internal path is NOT recomputed here: propagation is
// deferred to the next root read, which is where writes to many leaves
// under a shared parent collapse into one recompute.
func (t *Tree) Update(idx int, content []byte) {
	t.checkLeaf(idx)
	t.tUpdates.Inc()
	t.tHashDepth.Observe(0) // only the leaf is hashed here
	t.nodes[0][idx] = t.leafHash(content)
	if _, ok := t.dirty[idx]; !ok { // a dirty leaf is already stale
		t.dirty[idx] = struct{}{}
		t.stale[idx] = struct{}{}
	}
}

// Dirty reports how many leaves were updated since the last observation
// (Verify, Root, Flush, Rebuild). It counts observations, not hashing
// work: a Verify zeroes it without propagating anything.
func (t *Tree) Dirty() int { return len(t.dirty) }

// observe accounts one observation point: the leaves updated since the
// previous one are counted as a flush in merkle.flushes and
// merkle.dirty_leaves_per_flush, whether or not their paths are hashed now.
func (t *Tree) observe() {
	if len(t.dirty) == 0 {
		return
	}
	t.tFlushes.Inc()
	t.tDirtyLeafs.Observe(uint64(len(t.dirty)))
	clear(t.dirty)
}

// Flush observes the tree and propagates every stale leaf's path to the
// root, level by level, visiting each distinct parent exactly once. A clean
// tree flushes for free. After Flush, every internal node is consistent
// with the leaves.
func (t *Tree) Flush() {
	t.observe()
	if len(t.stale) == 0 {
		return
	}
	// Seed the frontier with the stale leaves and sort once: dividing a
	// sorted sequence by the arity keeps it sorted, so at every level the
	// shared parents of adjacent children sit next to each other and the
	// dedup is a single adjacent-equality sweep.
	frontier := t.flushScratch[:0]
	for idx := range t.stale {
		frontier = append(frontier, idx)
	}
	clear(t.stale)
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
	t.flushScratch = frontier[:0]
}

// Verify checks that content, a metadata block fetched from memory,
// matches the recorded leaf hash for idx, and returns false on a mismatch
// (tampered or replayed metadata). It is an observation point, so it
// accounts the updates since the last one, but it hashes only the leaf:
// the nodes above it never leave the chip (§III-G trusts them), so
// re-hashing them could not fail and checks nothing an attacker can reach.
// hash_depth observes the full path on success, as a walk to the root
// would, and 0 on a leaf mismatch.
func (t *Tree) Verify(idx int, content []byte) bool {
	t.observe()
	t.tVerifies.Inc()
	if idx < 0 || idx >= t.NumLeaves() {
		t.verifyFailed(idx)
		return false
	}
	if t.leafHash(content) != t.node(0, idx) {
		t.verifyFailed(idx)
		t.tHashDepth.Observe(0)
		return false
	}
	t.tHashDepth.Observe(uint64(t.levels - 1))
	return true
}

// verifyFailed accounts one integrity failure. The journal event's Page
// field carries the failing leaf index (the metadata block, not a data
// page) and Detail the tree level that diverged: always the leaf.
func (t *Tree) verifyFailed(leaf int) {
	t.tVerFails.Inc()
	if t.jrn != nil {
		t.jrn.Emit(journal.Event{Cycle: t.jcycle(), Type: journal.MerkleVerifyFail,
			Page: uint64(leaf), Detail: "level=0"})
	}
}

// NodeID identifies one internal tree node.
type NodeID struct {
	Level int
	Index int
}

// PathNodes returns, for leaf idx, the internal node coordinates visited
// from the leaf's parent up to (but excluding) the root. The memory
// controller uses these to model metadata-cache traffic for tree walks: a
// walk stops at the first node found in the metadata cache (a cached node
// is trusted), and the root never leaves the chip.
func (t *Tree) PathNodes(idx int) []NodeID {
	return t.AppendPathNodes(make([]NodeID, 0, t.levels-2), idx)
}

// AppendPathNodes is PathNodes appending into a caller-owned slice, for
// hot paths that walk a path per memory write and must not allocate.
func (t *Tree) AppendPathNodes(path []NodeID, idx int) []NodeID {
	for lvl := 1; lvl < t.levels-1; lvl++ {
		idx /= t.arity
		path = append(path, NodeID{Level: lvl, Index: idx})
	}
	return path
}

// Rebuild reconstructs the whole tree from a set of non-default leaf
// contents (crash recovery: counters are recovered first, then the tree is
// regenerated and checked against the processor-resident root, §II-D).
// Pending lazy updates are discarded wholesale — the supplied leaves are
// the new truth.
func (t *Tree) Rebuild(leaves map[int][]byte) {
	for i := range t.nodes {
		t.nodes[i] = make(map[int]Hash)
	}
	clear(t.dirty)
	clear(t.stale)
	for idx, content := range leaves {
		t.checkLeaf(idx)
		t.nodes[0][idx] = t.leafHash(content)
	}
	// Propagate upward, level by level, touching only parents of touched
	// nodes.
	touched := make(map[int]struct{}, len(leaves))
	for idx := range leaves {
		touched[idx/t.arity] = struct{}{}
	}
	for lvl := 1; lvl < t.levels; lvl++ {
		next := make(map[int]struct{}, len(touched))
		for idx := range touched {
			t.nodes[lvl][idx] = t.hashChildren(lvl, idx)
			next[idx/t.arity] = struct{}{}
		}
		touched = next
	}
	// A wholesale rebuild replaces the processor-resident root: recovery
	// and transport import, the moments an operator auditing the journal
	// most wants pinned.
	t.jrn.Emit(journal.Event{Cycle: t.jcycle(), Type: journal.MerkleRootUpdate})
}
