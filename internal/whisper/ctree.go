package whisper

import (
	"encoding/binary"

	"fsencr/internal/addr"
	"fsencr/internal/pmem"
)

// CTree is a persistent crit-bit tree over 64-bit keys, mirroring Whisper's
// ctree benchmark. Internal nodes record the critical bit and two tagged
// children (LSB set marks a leaf; allocations are cache-line aligned so the
// low bit is free).
//
// Layout:
//
//	internal: [critBit 8][child0 8][child1 8]
//	leaf:     [key 8][vlen 8][value ...]
type CTree struct {
	pool      *pmem.Pool
	rootSlot  int
	valueSize int

	pr probes
}

const leafTag = 1

// CreateCTree initializes an empty tree at the given root slot.
func CreateCTree(pool *pmem.Pool, rootSlot int, valueSize int) (*CTree, error) {
	if err := pool.SetRoot(rootSlot, 0); err != nil {
		return nil, err
	}
	return &CTree{pool: pool, rootSlot: rootSlot, valueSize: valueSize}, nil
}

// View binds the tree to another thread's pool view.
func (t *CTree) View(pool *pmem.Pool) *CTree {
	v := *t
	v.pool = pool
	return &v
}

func isLeaf(ref uint64) bool    { return ref&leafTag != 0 }
func leafOff(ref uint64) uint64 { return ref &^ leafTag }

func (t *CTree) newLeaf(key uint64, val []byte) (uint64, error) {
	off, err := t.pool.Alloc(uint64(16 + t.valueSize))
	if err != nil {
		return 0, err
	}
	rec := make([]byte, 16+len(val))
	binary.LittleEndian.PutUint64(rec[0:], key)
	binary.LittleEndian.PutUint64(rec[8:], uint64(len(val)))
	copy(rec[16:], val)
	if err := t.pool.Store(t.pool.Addr(off), rec); err != nil {
		return 0, err
	}
	return off | leafTag, nil
}

func (t *CTree) leafKey(ref uint64) (uint64, error) {
	return t.pool.LoadU64(t.pool.Addr(leafOff(ref)))
}

// descend walks from ref to the leaf key would reach.
func (t *CTree) descend(ref uint64, key uint64) (uint64, error) {
	for !isLeaf(ref) {
		var nb [24]byte
		if err := t.pool.Load(t.pool.Addr(ref), nb[:]); err != nil {
			return 0, err
		}
		bit := binary.LittleEndian.Uint64(nb[0:])
		if key>>bit&1 == 0 {
			ref = binary.LittleEndian.Uint64(nb[8:])
		} else {
			ref = binary.LittleEndian.Uint64(nb[16:])
		}
	}
	return ref, nil
}

// Put inserts or updates key.
func (t *CTree) Put(key uint64, val []byte) error {
	if t.pr.tel != nil {
		defer t.pr.opSpan(t.pool, "ctree_put", t.pr.tPut, uint64(t.pool.Proc().Now()))
	}
	root, err := t.pool.GetRoot(t.rootSlot)
	if err != nil {
		return err
	}
	if root == 0 {
		leaf, err := t.newLeaf(key, val)
		if err != nil {
			return err
		}
		return t.pool.SetRoot(t.rootSlot, leaf)
	}
	nearest, err := t.descend(root, key)
	if err != nil {
		return err
	}
	nkey, err := t.leafKey(nearest)
	if err != nil {
		return err
	}
	if nkey == key {
		// In-place value update: vlen and value are contiguous, one persist.
		off := leafOff(nearest)
		upd := make([]byte, 8+len(val))
		binary.LittleEndian.PutUint64(upd, uint64(len(val)))
		copy(upd[8:], val)
		return t.pool.Store(t.pool.Addr(off)+8, upd)
	}
	// Find the critical (highest differing) bit.
	diff := nkey ^ key
	crit := uint64(63)
	for diff>>crit&1 == 0 {
		crit--
	}
	newLeafRef, err := t.newLeaf(key, val)
	if err != nil {
		return err
	}
	// Walk again from the root, stopping where the new node belongs:
	// before the first node whose bit is below crit, or at a leaf.
	var parentAddr addr.Virt // address of the 8-byte link to rewrite
	cur := root
	for !isLeaf(cur) {
		var nb [24]byte
		if err := t.pool.Load(t.pool.Addr(cur), nb[:]); err != nil {
			return err
		}
		bit := binary.LittleEndian.Uint64(nb[0:])
		if bit < crit {
			break
		}
		if key>>bit&1 == 0 {
			parentAddr = t.pool.Addr(cur) + 8
			cur = binary.LittleEndian.Uint64(nb[8:])
		} else {
			parentAddr = t.pool.Addr(cur) + 16
			cur = binary.LittleEndian.Uint64(nb[16:])
		}
	}
	// Build the new internal node pointing at cur and the new leaf.
	node, err := t.pool.Alloc(24)
	if err != nil {
		return err
	}
	var nb [24]byte
	binary.LittleEndian.PutUint64(nb[0:], crit)
	if key>>crit&1 == 0 {
		binary.LittleEndian.PutUint64(nb[8:], newLeafRef)
		binary.LittleEndian.PutUint64(nb[16:], cur)
	} else {
		binary.LittleEndian.PutUint64(nb[8:], cur)
		binary.LittleEndian.PutUint64(nb[16:], newLeafRef)
	}
	if err := t.pool.Store(t.pool.Addr(node), nb[:]); err != nil {
		return err
	}
	// Durably swing the parent link (or the root).
	if parentAddr == 0 {
		return t.pool.SetRoot(t.rootSlot, node)
	}
	return t.pool.StoreU64(parentAddr, node)
}

// Get reads key's value into buf.
func (t *CTree) Get(key uint64, buf []byte) (int, error) {
	if t.pr.tel != nil {
		defer t.pr.opSpan(t.pool, "ctree_get", t.pr.tGet, uint64(t.pool.Proc().Now()))
	}
	root, err := t.pool.GetRoot(t.rootSlot)
	if err != nil {
		return 0, err
	}
	if root == 0 {
		return 0, ErrNotFound
	}
	leaf, err := t.descend(root, key)
	if err != nil {
		return 0, err
	}
	off := leafOff(leaf)
	var hdr [16]byte
	if err := t.pool.Load(t.pool.Addr(off), hdr[:]); err != nil {
		return 0, err
	}
	if binary.LittleEndian.Uint64(hdr[0:]) != key {
		return 0, ErrNotFound
	}
	n := int(binary.LittleEndian.Uint64(hdr[8:]))
	if n > len(buf) {
		n = len(buf)
	}
	return n, t.pool.Load(t.pool.Addr(off)+16, buf[:n])
}

// Delete removes key from the tree: the leaf's parent internal node is
// spliced out so the sibling takes its place. Returns whether the key was
// present.
func (t *CTree) Delete(key uint64) (bool, error) {
	root, err := t.pool.GetRoot(t.rootSlot)
	if err != nil {
		return false, err
	}
	if root == 0 {
		return false, nil
	}
	// Walk, remembering the link that points at the current node: after
	// the loop, linkToLeaf points at the leaf and linkToParent at its
	// parent internal node (zero means "the root slot").
	var linkToParent addr.Virt
	var siblingRef uint64
	var linkToLeaf addr.Virt
	cur := root
	for !isLeaf(cur) {
		var nb [24]byte
		if err := t.pool.Load(t.pool.Addr(cur), nb[:]); err != nil {
			return false, err
		}
		bit := binary.LittleEndian.Uint64(nb[0:])
		linkToParent = linkToLeaf
		if key>>bit&1 == 0 {
			siblingRef = binary.LittleEndian.Uint64(nb[16:])
			linkToLeaf = t.pool.Addr(cur) + 8
			cur = binary.LittleEndian.Uint64(nb[8:])
		} else {
			siblingRef = binary.LittleEndian.Uint64(nb[8:])
			linkToLeaf = t.pool.Addr(cur) + 16
			cur = binary.LittleEndian.Uint64(nb[16:])
		}
	}
	nkey, err := t.leafKey(cur)
	if err != nil {
		return false, err
	}
	if nkey != key {
		return false, nil
	}
	if linkToLeaf == 0 {
		// The leaf is the root: the tree becomes empty.
		return true, t.pool.SetRoot(t.rootSlot, 0)
	}
	// Splice: the sibling replaces the leaf's parent node.
	if linkToParent == 0 {
		return true, t.pool.SetRoot(t.rootSlot, siblingRef)
	}
	return true, t.pool.StoreU64(linkToParent, siblingRef)
}
