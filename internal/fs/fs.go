// Package fs implements the DAX-enabled filesystem model: an ext4-like
// volume living in the persistent-memory region of the physical address
// space, with inodes, per-file owner/group identities, Unix permission
// bits, page-granular extents, and per-file encryption policy.
//
// The filesystem intentionally mirrors the Linux semantics the paper builds
// on: the 14-bit inode number is the File ID the kernel sends to the memory
// controller, and the 18-bit group ID is the sharing/permission domain
// (§III-D: "the kernel can send the file ID (mapping->host->i_ino) and the
// group ID (mapping->host->i_gid) to the memory controller").
package fs

import (
	"errors"
	"fmt"
	"sort"

	"fsencr/internal/addr"
	"fsencr/internal/config"
	"fsencr/internal/counters"
)

// Mode is a Unix permission word (lower 9 bits: rwxrwxrwx).
type Mode uint16

// Permission bit masks.
const (
	PermUserRead   Mode = 0400
	PermUserWrite  Mode = 0200
	PermGroupRead  Mode = 0040
	PermGroupWrite Mode = 0020
	PermOtherRead  Mode = 0004
	PermOtherWrite Mode = 0002
)

// Access intents for permission checks.
type Access int

// Access kinds.
const (
	ReadAccess Access = iota
	WriteAccess
)

// File is one inode.
type File struct {
	Ino      uint16 // 14-bit file ID
	Name     string
	OwnerUID uint32
	GroupID  uint32 // 18-bit group ID
	Perm     Mode
	Size     uint64
	// Encrypted marks the file as covered by filesystem encryption.
	Encrypted bool
	// Salt feeds the per-file key derivation.
	Salt [8]byte
	// extents maps file page index -> physical page number.
	extents []uint64
}

// Pages returns the number of allocated pages.
func (f *File) Pages() int { return len(f.extents) }

// Covers reports whether the byte range [off, off+n) lies inside the file:
// the EOF bound is Size, not the page-rounded allocation. Overflow-safe.
func (f *File) Covers(off, n uint64) bool { return off <= f.Size && n <= f.Size-off }

// PagePA returns the physical address of file page idx (no DF-bit; the
// kernel decides DF at mapping time).
func (f *File) PagePA(idx int) (addr.Phys, error) {
	if idx < 0 || idx >= len(f.extents) {
		return 0, fmt.Errorf("fs: page %d beyond EOF of %q (%d pages)", idx, f.Name, len(f.extents))
	}
	return addr.Phys(f.extents[idx] * config.PageSize), nil
}

// Allows checks Unix permission bits for the given credentials.
func (f *File) Allows(uid, gid uint32, want Access) bool {
	if uid == 0 {
		return true // root
	}
	var r, w Mode
	switch {
	case uid == f.OwnerUID:
		r, w = PermUserRead, PermUserWrite
	case gid == f.GroupID:
		r, w = PermGroupRead, PermGroupWrite
	default:
		r, w = PermOtherRead, PermOtherWrite
	}
	switch want {
	case WriteAccess:
		return f.Perm&w != 0
	default:
		return f.Perm&r != 0
	}
}

// FS is the mounted volume.
type FS struct {
	regionBase uint64 // physical byte offset of the PMEM region
	regionSize uint64
	files      map[string]*File
	byIno      map[uint16]*File
	nextIno    uint16

	// Free pages are the never-allocated range [next, end) plus a stack of
	// freed pages, handed out first, last-in first-out: sequential files get
	// sequential pages, and the memory kept grows with what was freed, not
	// with the region.
	next, end uint64
	freed     []uint64
}

// Errors returned by filesystem operations.
var (
	ErrExists    = errors.New("fs: file exists")
	ErrNotExist  = errors.New("fs: no such file")
	ErrNoSpace   = errors.New("fs: no space left on device")
	ErrInoSpace  = errors.New("fs: out of 14-bit inode numbers")
	ErrBadGroup  = errors.New("fs: group ID exceeds 18 bits")
	ErrPermEperm = errors.New("fs: permission denied")
)

// New formats a volume over the physical range [base, base+size), which
// must be page-aligned (the paper's setup: memmap=4G!12G, i.e. 4 GB of PCM
// starting at 12 GB, formatted as DAX-enabled ext4).
func New(base, size uint64) *FS {
	if base%config.PageSize != 0 || size%config.PageSize != 0 {
		panic("fs: region must be page aligned")
	}
	return &FS{
		regionBase: base,
		regionSize: size,
		next:       base / config.PageSize,
		end:        (base + size) / config.PageSize,
		files:      make(map[string]*File),
		byIno:      make(map[uint16]*File),
		nextIno:    1,
	}
}

// RegionBase returns the physical base of the volume.
func (s *FS) RegionBase() uint64 { return s.regionBase }

// FreePages returns how many pages remain unallocated.
func (s *FS) FreePages() int { return len(s.freed) + int(s.end-s.next) }

// Create makes a new file. Encrypted files get a deterministic-per-inode
// salt; key derivation and registration with the memory controller are the
// kernel's job.
func (s *FS) Create(name string, uid, gid uint32, perm Mode, encrypted bool) (*File, error) {
	if _, ok := s.files[name]; ok {
		return nil, fmt.Errorf("%w: %q", ErrExists, name)
	}
	if gid > counters.MaxGroupID {
		return nil, fmt.Errorf("%w: %d", ErrBadGroup, gid)
	}
	if s.nextIno > counters.MaxFileID {
		return nil, ErrInoSpace
	}
	f := &File{
		Ino:       s.nextIno,
		Name:      name,
		OwnerUID:  uid,
		GroupID:   gid,
		Perm:      perm,
		Encrypted: encrypted,
	}
	s.nextIno++
	for i := range f.Salt {
		f.Salt[i] = byte(uint16(f.Ino) >> (i % 2 * 8) * 31)
	}
	s.files[name] = f
	s.byIno[f.Ino] = f
	return f, nil
}

// Lookup finds a file by name.
func (s *FS) Lookup(name string) (*File, error) {
	f, ok := s.files[name]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrNotExist, name)
	}
	return f, nil
}

// ByIno finds a file by inode number.
func (s *FS) ByIno(ino uint16) (*File, bool) {
	f, ok := s.byIno[ino]
	return f, ok
}

// Files returns all files sorted by name.
func (s *FS) Files() []*File {
	out := make([]*File, 0, len(s.files))
	for _, f := range s.files {
		out = append(out, f)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Truncate grows (or shrinks) a file to size bytes, allocating or freeing
// whole pages. Shrinking returns the freed physical pages so the kernel can
// shred them. Growing is all or nothing: without room for every page it
// takes none and fails with ErrNoSpace.
func (s *FS) Truncate(f *File, size uint64) (freed []uint64, err error) {
	wantPages := (size + config.PageSize - 1) / config.PageSize
	if have := uint64(len(f.extents)); wantPages > have && wantPages-have > uint64(s.FreePages()) {
		return nil, ErrNoSpace
	}
	for uint64(len(f.extents)) < wantPages {
		var pg uint64
		if n := len(s.freed); n > 0 {
			pg, s.freed = s.freed[n-1], s.freed[:n-1]
		} else {
			pg = s.next
			s.next++
		}
		f.extents = append(f.extents, pg)
	}
	for uint64(len(f.extents)) > wantPages {
		pg := f.extents[len(f.extents)-1]
		f.extents = f.extents[:len(f.extents)-1]
		freed = append(freed, pg)
		s.freed = append(s.freed, pg)
	}
	f.Size = size
	return freed, nil
}

// Unlink removes a file, returning its physical pages for shredding.
func (s *FS) Unlink(name string) (*File, []uint64, error) {
	f, ok := s.files[name]
	if !ok {
		return nil, nil, fmt.Errorf("%w: %q", ErrNotExist, name)
	}
	delete(s.files, name)
	delete(s.byIno, f.Ino)
	pages := append([]uint64(nil), f.extents...)
	s.freed = append(s.freed, f.extents...)
	f.extents = nil
	return f, pages, nil
}

// Chmod changes permission bits (only the owner or root may).
func (s *FS) Chmod(f *File, uid uint32, perm Mode) error {
	if uid != 0 && uid != f.OwnerUID {
		return ErrPermEperm
	}
	f.Perm = perm
	return nil
}

// Chgrp changes the file's group (owner or root only).
func (s *FS) Chgrp(f *File, uid, gid uint32) error {
	if uid != 0 && uid != f.OwnerUID {
		return ErrPermEperm
	}
	if gid > counters.MaxGroupID {
		return fmt.Errorf("%w: %d", ErrBadGroup, gid)
	}
	f.GroupID = gid
	return nil
}
