// Package pmem is the persistent-memory programming library the workloads
// are written against — the role Intel's PMDK (libpmemobj) plays for PMEMKV
// and Whisper in the paper. It provides a persistent heap inside one
// memory-mapped file, a root object area for durable entry pointers, and
// persist primitives that map to CLWB+SFENCE under DAX (or msync under the
// page-cache modes).
//
// Every durable store is followed by a Persist of the written range; this
// flush-per-store discipline is exactly why write-intensive persistent
// workloads show the largest overheads in the paper's evaluation.
package pmem

import (
	"encoding/binary"
	"errors"
	"fmt"

	"fsencr/internal/addr"
	"fsencr/internal/config"
	"fsencr/internal/fs"
	"fsencr/internal/kernel"
)

// Layout constants of a pool file.
const (
	headerSize = config.LineSize     // magic + next-free offset
	rootSize   = 4 * config.LineSize // root object area
	poolMagic  = 0x70_6d_65_6d_f5e1  // "pmem" tag
)

// Pool is a persistent heap mapped into one process's address space.
type Pool struct {
	proc *kernel.Process
	base addr.Virt
	size uint64
}

// ErrPoolFull is returned when the heap is exhausted.
var ErrPoolFull = errors.New("pmem: pool out of space")

// Create maps f into proc's address space and initializes a fresh heap
// over it.
func Create(proc *kernel.Process, f *fs.File, size uint64) (*Pool, error) {
	base, err := proc.Mmap(f, size)
	if err != nil {
		return nil, err
	}
	p := &Pool{proc: proc, base: base, size: size}
	var hdr [16]byte
	binary.LittleEndian.PutUint64(hdr[0:8], poolMagic)
	binary.LittleEndian.PutUint64(hdr[8:16], headerSize+rootSize)
	if err := p.Store(p.base, hdr[:]); err != nil {
		return nil, err
	}
	// Zero the root area so re-opened pools see null pointers.
	zero := make([]byte, rootSize)
	if err := p.Store(p.base+headerSize, zero); err != nil {
		return nil, err
	}
	return p, nil
}

// Open maps an existing pool (e.g. after a crash or from a second thread).
func Open(proc *kernel.Process, f *fs.File, size uint64) (*Pool, error) {
	base, err := proc.Mmap(f, size)
	if err != nil {
		return nil, err
	}
	p := &Pool{proc: proc, base: base, size: size}
	var hdr [8]byte
	if err := proc.Read(base, hdr[:]); err != nil {
		return nil, err
	}
	if !IsHeader(hdr[:]) {
		return nil, fmt.Errorf("pmem: %q is not a pool", f.Name)
	}
	return p, nil
}

// IsHeader reports whether hdr, a file's first 8 bytes, is a pool header.
func IsHeader(hdr []byte) bool { return binary.LittleEndian.Uint64(hdr) == poolMagic }

// Proc returns the owning process.
func (p *Pool) Proc() *kernel.Process { return p.proc }

// Base returns the pool's base virtual address.
func (p *Pool) Base() addr.Virt { return p.base }

// RootOff returns the pool offset of root slot i (8 bytes each).
func RootOff(i int) uint64 {
	if i < 0 || i >= rootSize/8 {
		panic("pmem: root slot out of range")
	}
	return headerSize + 8*uint64(i)
}

// SetRoot durably stores a pool-relative offset in root slot i.
func (p *Pool) SetRoot(i int, off uint64) error {
	return p.StoreU64(p.Addr(RootOff(i)), off)
}

// GetRoot reads root slot i.
func (p *Pool) GetRoot(i int) (uint64, error) {
	return p.proc.ReadU64(p.Addr(RootOff(i)))
}

// Addr converts a pool-relative offset into a virtual address. Offset 0 is
// the null pointer.
func (p *Pool) Addr(off uint64) addr.Virt { return p.base + addr.Virt(off) }

// Off converts a virtual address back to a pool-relative offset.
func (p *Pool) Off(va addr.Virt) uint64 { return uint64(va - p.base) }

// Alloc carves n bytes (rounded up to a cache line) out of the heap and
// returns its pool-relative offset. The allocation pointer itself is
// persisted, PMDK-style.
func (p *Pool) Alloc(n uint64) (uint64, error) {
	next, err := p.proc.ReadU64(p.base + 8)
	if err != nil {
		return 0, err
	}
	n = (n + config.LineSize - 1) &^ (config.LineSize - 1)
	if next+n > p.size {
		return 0, fmt.Errorf("%w: need %d, %d left", ErrPoolFull, n, p.size-next)
	}
	if err := p.StoreU64(p.base+8, next+n); err != nil {
		return 0, err
	}
	return next, nil
}

// Store durably writes data at va (write + CLWB/SFENCE or msync).
func (p *Pool) Store(va addr.Virt, data []byte) error {
	if err := p.proc.Write(va, data); err != nil {
		return err
	}
	return p.proc.Persist(va, uint64(len(data)))
}

// StoreU64 durably writes one 64-bit value.
func (p *Pool) StoreU64(va addr.Virt, v uint64) error {
	if err := p.proc.WriteU64(va, v); err != nil {
		return err
	}
	return p.proc.Persist(va, 8)
}

// Load reads len(buf) bytes at va.
func (p *Pool) Load(va addr.Virt, buf []byte) error { return p.proc.Read(va, buf) }

// ReadAt loads len(b) bytes at pool offset off: the pool as the io.ReaderAt
// over its own offsets that kvstore walks a tree through.
func (p *Pool) ReadAt(b []byte, off int64) (int, error) {
	if err := p.Load(p.Addr(uint64(off)), b); err != nil {
		return 0, err
	}
	return len(b), nil
}

// LoadU64 reads one 64-bit value.
func (p *Pool) LoadU64(va addr.Virt) (uint64, error) { return p.proc.ReadU64(va) }

// View returns a same-heap Pool bound to another process (thread) that has
// the pool's file mapped at the same base. Threads in the paper's
// benchmarks share one pool.
func (p *Pool) View(proc *kernel.Process, base addr.Virt) *Pool {
	return &Pool{proc: proc, base: base, size: p.size}
}
