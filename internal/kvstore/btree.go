// Package kvstore implements a persistent B+Tree key-value engine over the
// pmem library — the stand-in for PMEMKV's BTree engine used throughout the
// paper's evaluation (Table II). Keys are 64-bit; values are arbitrary
// blobs (the paper uses 64 B "small" and 4 KB "large" values).
//
// Every node and value mutation is made durable with a persist, so the
// engine exercises exactly the flush-per-store path whose cost the paper
// measures.
package kvstore

import (
	"cmp"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"sync"

	"fsencr/internal/pmem"
	"fsencr/internal/telemetry"
)

// Order is the B+Tree fan-out: max keys per node.
const Order = 8

// Node layout (all little-endian):
//
//	byte 0:      isLeaf
//	byte 1:      count
//	bytes 2..7:  reserved
//	bytes 8..71: keys[8]
//	leaf:  bytes 72..135 value offsets[8], bytes 136..143 next-leaf offset
//	inner: bytes 72..143 child offsets[9]
const (
	nodeSize    = 192
	keysOff     = 8
	slotsOff    = 72
	nextLeafOff = 136
)

// BTree is a persistent B+Tree rooted in pool root slot rootSlot.
type BTree struct {
	pool     *pmem.Pool
	rootSlot int

	tel  *telemetry.Registry
	tPut *telemetry.Histogram
	tGet *telemetry.Histogram
}

// Instrument attaches telemetry handles for per-op latency histograms and
// spans. A nil registry detaches.
func (t *BTree) Instrument(reg *telemetry.Registry) {
	t.tel = reg
	t.tPut = reg.Histogram("kvstore.put_cycles")
	t.tGet = reg.Histogram("kvstore.get_cycles")
}

// opSpan records one completed operation against this tree's clock.
func (t *BTree) opSpan(name string, h *telemetry.Histogram, start uint64) {
	end := uint64(t.pool.Proc().Now())
	h.Observe(end - start)
	t.tel.Span("kvstore", name, start, end, t.pool.Proc().Core().ID())
}

// ErrNotFound is returned by Get for missing keys.
var ErrNotFound = errors.New("kvstore: key not found")

// Create initializes an empty tree whose root pointer lives in pool root
// slot rootSlot.
func Create(pool *pmem.Pool, rootSlot int) (*BTree, error) {
	t := &BTree{pool: pool, rootSlot: rootSlot}
	leaf, err := t.newNode(true)
	if err != nil {
		return nil, err
	}
	if err := pool.SetRoot(rootSlot, leaf); err != nil {
		return nil, err
	}
	return t, nil
}

// Open attaches to an existing tree (another thread, or after recovery).
func Open(pool *pmem.Pool, rootSlot int) *BTree {
	return &BTree{pool: pool, rootSlot: rootSlot}
}

type node struct {
	off uint64
	buf [nodeSize]byte
}

func (n *node) isLeaf() bool   { return n.buf[0] != 0 }
func (n *node) count() int     { return int(n.buf[1]) }
func (n *node) setCount(c int) { n.buf[1] = byte(c) }

func (n *node) key(i int) uint64 {
	return binary.LittleEndian.Uint64(n.buf[keysOff+8*i:])
}
func (n *node) setKey(i int, k uint64) {
	binary.LittleEndian.PutUint64(n.buf[keysOff+8*i:], k)
}

// slot i is a value offset in leaves, child i in inner nodes.
func (n *node) slot(i int) uint64 {
	return binary.LittleEndian.Uint64(n.buf[slotsOff+8*i:])
}
func (n *node) setSlot(i int, v uint64) {
	binary.LittleEndian.PutUint64(n.buf[slotsOff+8*i:], v)
}

func (n *node) nextLeaf() uint64 {
	return binary.LittleEndian.Uint64(n.buf[nextLeafOff:])
}
func (n *node) setNextLeaf(v uint64) {
	binary.LittleEndian.PutUint64(n.buf[nextLeafOff:], v)
}

func (t *BTree) readNode(off uint64) (*node, error) {
	n := &node{off: off}
	if err := t.pool.Load(t.pool.Addr(off), n.buf[:]); err != nil {
		return nil, err
	}
	return n, nil
}

func (t *BTree) writeNode(n *node) error {
	return t.pool.Store(t.pool.Addr(n.off), n.buf[:])
}

func (t *BTree) newNode(leaf bool) (uint64, error) {
	off, err := t.pool.Alloc(nodeSize)
	if err != nil {
		return 0, err
	}
	n := &node{off: off}
	if leaf {
		n.buf[0] = 1
	}
	return off, t.writeNode(n)
}

// root returns the current root offset.
func (t *BTree) root() (uint64, error) { return t.pool.GetRoot(t.rootSlot) }

// search returns the index of the first key >= k within the node's keys.
func (n *node) search(k uint64) int {
	lo, hi := 0, n.count()
	for lo < hi {
		mid := (lo + hi) / 2
		if n.key(mid) < k {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// writeValue allocates and persists a value blob, returning its offset.
func (t *BTree) writeValue(val []byte) (uint64, error) {
	off, err := t.pool.Alloc(uint64(8 + len(val)))
	if err != nil {
		return 0, err
	}
	rec := make([]byte, 8+len(val))
	binary.LittleEndian.PutUint64(rec, uint64(len(val)))
	copy(rec[8:], val)
	if err := t.pool.Store(t.pool.Addr(off), rec); err != nil {
		return 0, err
	}
	return off, nil
}

// readValue reads the blob at pool offset off into buf through r, returning
// its length; hdr is 8 bytes of scratch for the blob's length word.
func readValue(r io.ReaderAt, off uint64, hdr, buf []byte) (int, error) {
	if _, err := r.ReadAt(hdr, int64(off)); err != nil {
		return 0, err
	}
	n := int(min(binary.LittleEndian.Uint64(hdr), uint64(len(buf))))
	_, err := r.ReadAt(buf[:n], int64(off+8))
	return n, err
}

// Put inserts or overwrites key with val.
func (t *BTree) Put(key uint64, val []byte) error {
	if t.tel != nil {
		defer t.opSpan("put", t.tPut, uint64(t.pool.Proc().Now()))
	}
	rootOff, err := t.root()
	if err != nil {
		return err
	}
	promoted, newChild, err := t.insert(rootOff, key, val)
	if err != nil {
		return err
	}
	if newChild == 0 {
		return nil
	}
	// Root split: grow the tree.
	newRootOff, err := t.pool.Alloc(nodeSize)
	if err != nil {
		return err
	}
	nr := &node{off: newRootOff}
	nr.setCount(1)
	nr.setKey(0, promoted)
	nr.setSlot(0, rootOff)
	nr.setSlot(1, newChild)
	if err := t.writeNode(nr); err != nil {
		return err
	}
	return t.pool.SetRoot(t.rootSlot, newRootOff)
}

// insert descends into the subtree at off. If the child splits, it returns
// the promoted key and the new right sibling's offset.
func (t *BTree) insert(off uint64, key uint64, val []byte) (promoted, newChild uint64, err error) {
	n, err := t.readNode(off)
	if err != nil {
		return 0, 0, err
	}
	if n.isLeaf() {
		return t.insertLeaf(n, key, val)
	}
	idx := n.search(key)
	// In inner nodes, keys[i] is the smallest key of child i+1; descend
	// right of an equal key.
	if idx < n.count() && n.key(idx) == key {
		idx++
	}
	childOff := n.slot(idx)
	p, nc, err := t.insert(childOff, key, val)
	if err != nil || nc == 0 {
		return 0, 0, err
	}
	// Child split: insert (p, nc) into this node.
	if n.count() < Order {
		insertInner(n, idx, p, nc)
		return 0, 0, t.writeNode(n)
	}
	return t.splitInner(n, idx, p, nc)
}

func insertInner(n *node, idx int, key, child uint64) {
	for i := n.count(); i > idx; i-- {
		n.setKey(i, n.key(i-1))
		n.setSlot(i+1, n.slot(i))
	}
	n.setKey(idx, key)
	n.setSlot(idx+1, child)
	n.setCount(n.count() + 1)
}

func (t *BTree) splitInner(n *node, idx int, key, child uint64) (uint64, uint64, error) {
	// Gather the Order+1 keys and Order+2 children in order.
	var keys [Order + 1]uint64
	var kids [Order + 2]uint64
	for i := 0; i < n.count(); i++ {
		keys[i] = n.key(i)
	}
	for i := 0; i <= n.count(); i++ {
		kids[i] = n.slot(i)
	}
	copy(keys[idx+1:], keys[idx:Order])
	keys[idx] = key
	copy(kids[idx+2:], kids[idx+1:Order+1])
	kids[idx+1] = child

	mid := (Order + 1) / 2
	promoted := keys[mid]

	rightOff, err := t.pool.Alloc(nodeSize)
	if err != nil {
		return 0, 0, err
	}
	right := &node{off: rightOff}
	rc := Order - mid
	right.setCount(rc)
	for i := 0; i < rc; i++ {
		right.setKey(i, keys[mid+1+i])
	}
	for i := 0; i <= rc; i++ {
		right.setSlot(i, kids[mid+1+i])
	}
	if err := t.writeNode(right); err != nil {
		return 0, 0, err
	}

	n.setCount(mid)
	for i := 0; i < mid; i++ {
		n.setKey(i, keys[i])
		n.setSlot(i, kids[i])
	}
	n.setSlot(mid, kids[mid])
	if err := t.writeNode(n); err != nil {
		return 0, 0, err
	}
	return promoted, rightOff, nil
}

func (t *BTree) insertLeaf(n *node, key uint64, val []byte) (uint64, uint64, error) {
	idx := n.search(key)
	if idx < n.count() && n.key(idx) == key {
		// Overwrite: write a fresh blob and swing the pointer (PMEMKV's
		// out-of-place update).
		voff, err := t.writeValue(val)
		if err != nil {
			return 0, 0, err
		}
		n.setSlot(idx, voff)
		return 0, 0, t.writeNode(n)
	}
	voff, err := t.writeValue(val)
	if err != nil {
		return 0, 0, err
	}
	if n.count() < Order {
		for i := n.count(); i > idx; i-- {
			n.setKey(i, n.key(i-1))
			n.setSlot(i, n.slot(i-1))
		}
		n.setKey(idx, key)
		n.setSlot(idx, voff)
		n.setCount(n.count() + 1)
		return 0, 0, t.writeNode(n)
	}
	// Leaf split.
	var keys [Order + 1]uint64
	var vals [Order + 1]uint64
	for i := 0; i < Order; i++ {
		keys[i] = n.key(i)
		vals[i] = n.slot(i)
	}
	copy(keys[idx+1:], keys[idx:Order])
	copy(vals[idx+1:], vals[idx:Order])
	keys[idx] = key
	vals[idx] = voff

	mid := (Order + 1) / 2
	rightOff, err := t.pool.Alloc(nodeSize)
	if err != nil {
		return 0, 0, err
	}
	right := &node{off: rightOff}
	right.buf[0] = 1
	rc := Order + 1 - mid
	right.setCount(rc)
	for i := 0; i < rc; i++ {
		right.setKey(i, keys[mid+i])
		right.setSlot(i, vals[mid+i])
	}
	right.setNextLeaf(n.nextLeaf())
	if err := t.writeNode(right); err != nil {
		return 0, 0, err
	}

	n.setCount(mid)
	for i := 0; i < mid; i++ {
		n.setKey(i, keys[i])
		n.setSlot(i, vals[i])
	}
	n.setNextLeaf(rightOff)
	if err := t.writeNode(n); err != nil {
		return 0, 0, err
	}
	return right.key(0), rightOff, nil
}

// Get reads key's value into buf, returning the value length.
func (t *BTree) Get(key uint64, buf []byte) (int, error) {
	if t.tel != nil {
		defer t.opSpan("get", t.tGet, uint64(t.pool.Proc().Now()))
	}
	return lookup(t.pool, false, t.rootSlot, key, buf)
}

// Lookup is Get without a tree handle, through r, any io.ReaderAt over the
// pool file: it checks the pool header pmem.Open checks, then makes Get's
// loads. Bytes that are not a tree fail — a node of more than Order keys,
// or a walk past maxDepth, which keeps a reader from spinning in a cycle.
func Lookup(r io.ReaderAt, rootSlot int, key uint64, buf []byte) (int, error) {
	return lookup(r, true, rootSlot, key, buf)
}

// maxDepth is far deeper than a tree over the largest pool can grow.
const maxDepth = 32

var errNotTree = errors.New("kvstore: not a B+Tree pool")

// nodes recycles the node a lookup reads through: its loads go through an
// interface, so a buffer on the stack would escape to the heap every get.
var nodes = sync.Pool{New: func() any { return new(node) }}

func lookup(r io.ReaderAt, header bool, rootSlot int, key uint64, buf []byte) (int, error) {
	n := nodes.Get().(*node)
	defer nodes.Put(n)
	word := n.buf[:8]
	if header {
		if _, err := r.ReadAt(word, 0); err != nil || !pmem.IsHeader(word) {
			return 0, cmp.Or(err, errNotTree)
		}
	}
	if _, err := r.ReadAt(word, int64(pmem.RootOff(rootSlot))); err != nil {
		return 0, err
	}
	off := binary.LittleEndian.Uint64(word)
	for depth := 0; depth < maxDepth; depth++ {
		if _, err := r.ReadAt(n.buf[:], int64(off)); err != nil {
			return 0, err
		}
		if n.count() > Order {
			return 0, errNotTree
		}
		idx := n.search(key)
		if n.isLeaf() {
			if idx >= n.count() || n.key(idx) != key {
				return 0, fmt.Errorf("%w: %d", ErrNotFound, key)
			}
			return readValue(r, n.slot(idx), word, buf)
		}
		if idx < n.count() && n.key(idx) == key {
			idx++
		}
		off = n.slot(idx)
	}
	return 0, errNotTree
}

// Scan walks keys in ascending order starting at from, calling fn with each
// key and value until fn returns false or the tree ends.
func (t *BTree) Scan(from uint64, buf []byte, fn func(key uint64, val []byte) bool) error {
	off, err := t.root()
	if err != nil {
		return err
	}
	var n *node
	for {
		n, err = t.readNode(off)
		if err != nil {
			return err
		}
		if n.isLeaf() {
			break
		}
		idx := n.search(from)
		if idx < n.count() && n.key(idx) == from {
			idx++
		}
		off = n.slot(idx)
	}
	var hdr [8]byte
	for {
		for i := n.search(from); i < n.count(); i++ {
			ln, err := readValue(t.pool, n.slot(i), hdr[:], buf)
			if err != nil {
				return err
			}
			if !fn(n.key(i), buf[:ln]) {
				return nil
			}
		}
		next := n.nextLeaf()
		if next == 0 {
			return nil
		}
		from = 0
		n, err = t.readNode(next)
		if err != nil {
			return err
		}
	}
}

// View returns the same tree bound to another thread's pool view. The
// view inherits the tree's telemetry handles.
func (t *BTree) View(pool *pmem.Pool) *BTree {
	v := *t
	v.pool = pool
	return &v
}

// Delete removes key from the tree, returning whether it was present.
// Deletion is lazy (PMEMKV-style): the entry is removed from its leaf
// without rebalancing; inner keys may persist as routing separators, and
// emptied leaves are skipped by scans.
func (t *BTree) Delete(key uint64) (bool, error) {
	off, err := t.root()
	if err != nil {
		return false, err
	}
	for {
		n, err := t.readNode(off)
		if err != nil {
			return false, err
		}
		idx := n.search(key)
		if n.isLeaf() {
			if idx >= n.count() || n.key(idx) != key {
				return false, nil
			}
			for i := idx; i < n.count()-1; i++ {
				n.setKey(i, n.key(i+1))
				n.setSlot(i, n.slot(i+1))
			}
			n.setCount(n.count() - 1)
			return true, t.writeNode(n)
		}
		if idx < n.count() && n.key(idx) == key {
			idx++
		}
		off = n.slot(idx)
	}
}

// Len walks the tree and counts live keys (diagnostic; O(n)).
func (t *BTree) Len() (int, error) {
	count := 0
	buf := make([]byte, 0)
	err := t.Scan(0, buf, func(uint64, []byte) bool {
		count++
		return true
	})
	return count, err
}
