package fs

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"fsencr/internal/config"
)

func newFS() *FS {
	return New(12<<30, 64<<20)
}

func TestCreateLookup(t *testing.T) {
	s := newFS()
	f, err := s.Create("a.db", 1000, 100, 0600, true)
	if err != nil {
		t.Fatal(err)
	}
	if f.Ino == 0 {
		t.Fatal("zero inode")
	}
	got, err := s.Lookup("a.db")
	if err != nil || got != f {
		t.Fatal("lookup failed")
	}
	if _, err := s.Lookup("nope"); !errors.Is(err, ErrNotExist) {
		t.Fatalf("missing lookup error = %v", err)
	}
	if _, err := s.Create("a.db", 1000, 100, 0600, false); !errors.Is(err, ErrExists) {
		t.Fatalf("duplicate create error = %v", err)
	}
}

func TestByIno(t *testing.T) {
	s := newFS()
	f, _ := s.Create("x", 1, 1, 0600, false)
	got, ok := s.ByIno(f.Ino)
	if !ok || got != f {
		t.Fatal("ByIno failed")
	}
	if _, ok := s.ByIno(9999); ok {
		t.Fatal("phantom inode")
	}
}

func TestInodesDistinct(t *testing.T) {
	s := newFS()
	a, _ := s.Create("a", 1, 1, 0600, false)
	b, _ := s.Create("b", 1, 1, 0600, false)
	if a.Ino == b.Ino {
		t.Fatal("duplicate inode numbers")
	}
	if a.Salt == b.Salt {
		t.Fatal("duplicate salts")
	}
}

func TestGroupIDValidation(t *testing.T) {
	s := newFS()
	if _, err := s.Create("g", 1, 1<<18, 0600, false); !errors.Is(err, ErrBadGroup) {
		t.Fatalf("oversize group accepted: %v", err)
	}
}

func TestTruncateGrowShrink(t *testing.T) {
	s := newFS()
	f, _ := s.Create("t", 1, 1, 0600, false)
	if _, err := s.Truncate(f, 3*config.PageSize); err != nil {
		t.Fatal(err)
	}
	if f.Pages() != 3 || f.Size != 3*config.PageSize {
		t.Fatalf("pages=%d size=%d", f.Pages(), f.Size)
	}
	// Page addresses must be in the region and distinct.
	seen := map[uint64]bool{}
	for i := 0; i < 3; i++ {
		pa, err := f.PagePA(i)
		if err != nil {
			t.Fatal(err)
		}
		if uint64(pa) < s.RegionBase() {
			t.Fatal("extent below region base")
		}
		if seen[uint64(pa)] {
			t.Fatal("duplicate extent")
		}
		seen[uint64(pa)] = true
	}
	freed, err := s.Truncate(f, config.PageSize)
	if err != nil || len(freed) != 2 {
		t.Fatalf("shrink freed %d pages, err %v", len(freed), err)
	}
	if _, err := f.PagePA(1); err == nil {
		t.Fatal("beyond-EOF page accessible after shrink")
	}
}

func TestSequentialAllocation(t *testing.T) {
	s := newFS()
	f, _ := s.Create("seq", 1, 1, 0600, false)
	s.Truncate(f, 4*config.PageSize)
	p0, _ := f.PagePA(0)
	p1, _ := f.PagePA(1)
	if p1 != p0+config.PageSize {
		t.Fatalf("sequential file got non-sequential pages: %v then %v", p0, p1)
	}
}

func TestNoSpace(t *testing.T) {
	s := New(0, 2*config.PageSize)
	f, _ := s.Create("big", 1, 1, 0600, false)
	if _, err := s.Truncate(f, 3*config.PageSize); !errors.Is(err, ErrNoSpace) {
		t.Fatalf("overcommit error = %v", err)
	}
	if f.Pages() != 0 || s.FreePages() != 2 {
		t.Fatalf("a failed grow took pages: file holds %d, %d free; want 0 and 2", f.Pages(), s.FreePages())
	}
}

// listAlloc is the free list the free range replaced, kept as the reference
// for its order: every page number, sorted descending, popped from the tail,
// freed pages pushed back on it.
type listAlloc struct {
	free  []uint64
	files map[string][]uint64
}

func newListAlloc(base, size uint64) *listAlloc {
	l := &listAlloc{files: map[string][]uint64{}}
	first, count := base/config.PageSize, size/config.PageSize
	for i := int64(count) - 1; i >= 0; i-- {
		l.free = append(l.free, first+uint64(i))
	}
	return l
}

func (l *listAlloc) truncate(name string, size uint64) error {
	ext := l.files[name]
	want := int((size + config.PageSize - 1) / config.PageSize)
	if want-len(ext) > len(l.free) {
		return ErrNoSpace
	}
	for len(ext) < want {
		ext, l.free = append(ext, l.free[len(l.free)-1]), l.free[:len(l.free)-1]
	}
	for len(ext) > want {
		l.free, ext = append(l.free, ext[len(ext)-1]), ext[:len(ext)-1]
	}
	l.files[name] = ext
	return nil
}

func (l *listAlloc) unlink(name string) {
	l.free = append(l.free, l.files[name]...)
	delete(l.files, name)
}

// TestFreeRangeMatchesList drives the filesystem and the reference list
// through the same seeded creates, grows, shrinks and unlinks on a small
// region, failed creates (unlinked, as the kernel does) included: every
// file's page sequence and the free count must agree after every step.
func TestFreeRangeMatchesList(t *testing.T) {
	const base, size = 12 << 30, 256 * config.PageSize
	s, ref := New(base, size), newListAlloc(base, size)
	rng := rand.New(rand.NewSource(39))
	var names []string
	randSize := func() uint64 { return uint64(rng.Int63n(48 * config.PageSize)) }
	for step := 0; step < 20000; step++ {
		switch op := rng.Intn(10); {
		case op < 3 || len(names) == 0:
			name := fmt.Sprintf("f%d", step)
			f, err := s.Create(name, 1, 1, 0600, false)
			if err != nil {
				t.Fatal(err)
			}
			sz := randSize()
			_, err = s.Truncate(f, sz)
			if rerr := ref.truncate(name, sz); !errors.Is(err, rerr) {
				t.Fatalf("step %d: create %q of %d bytes: %v, reference %v", step, name, sz, err, rerr)
			}
			if err != nil {
				s.Unlink(name)
				ref.unlink(name)
				break
			}
			names = append(names, name)
		case op < 8:
			name := names[rng.Intn(len(names))]
			f, _ := s.Lookup(name)
			sz := randSize()
			_, err := s.Truncate(f, sz)
			if rerr := ref.truncate(name, sz); !errors.Is(err, rerr) {
				t.Fatalf("step %d: truncate %q to %d bytes: %v, reference %v", step, name, sz, err, rerr)
			}
		default:
			i := rng.Intn(len(names))
			if _, _, err := s.Unlink(names[i]); err != nil {
				t.Fatal(err)
			}
			ref.unlink(names[i])
			names = append(names[:i], names[i+1:]...)
		}
		if s.FreePages() != len(ref.free) {
			t.Fatalf("step %d: %d free pages, reference %d", step, s.FreePages(), len(ref.free))
		}
		for _, name := range names {
			f, _ := s.Lookup(name)
			ext := ref.files[name]
			if f.Pages() != len(ext) {
				t.Fatalf("step %d: %q holds %d pages, reference %d", step, name, f.Pages(), len(ext))
			}
			for i, pg := range ext {
				if pa, _ := f.PagePA(i); uint64(pa) != pg*config.PageSize {
					t.Fatalf("step %d: %q page %d at %#x, reference %#x", step, name, i, uint64(pa), pg*config.PageSize)
				}
			}
		}
	}
}

func TestUnlinkRecyclesPages(t *testing.T) {
	s := newFS()
	f, _ := s.Create("u", 1, 1, 0600, false)
	s.Truncate(f, 2*config.PageSize)
	free := s.FreePages()
	_, pages, err := s.Unlink("u")
	if err != nil || len(pages) != 2 {
		t.Fatalf("unlink pages=%d err=%v", len(pages), err)
	}
	if s.FreePages() != free+2 {
		t.Fatal("pages not recycled")
	}
	if _, err := s.Lookup("u"); err == nil {
		t.Fatal("file survived unlink")
	}
}

func TestPermissions(t *testing.T) {
	s := newFS()
	f, _ := s.Create("p", 1000, 100, 0640, false)
	cases := []struct {
		uid, gid uint32
		want     Access
		allow    bool
	}{
		{1000, 100, ReadAccess, true},   // owner read
		{1000, 100, WriteAccess, true},  // owner write
		{2000, 100, ReadAccess, true},   // group read
		{2000, 100, WriteAccess, false}, // group write denied
		{2000, 200, ReadAccess, false},  // other read denied
		{0, 999, WriteAccess, true},     // root always
	}
	for i, c := range cases {
		if f.Allows(c.uid, c.gid, c.want) != c.allow {
			t.Fatalf("case %d: Allows(%d,%d,%v) != %v", i, c.uid, c.gid, c.want, c.allow)
		}
	}
}

func TestChmod(t *testing.T) {
	s := newFS()
	f, _ := s.Create("c", 1000, 100, 0600, false)
	if err := s.Chmod(f, 2000, 0777); !errors.Is(err, ErrPermEperm) {
		t.Fatalf("non-owner chmod allowed: %v", err)
	}
	if err := s.Chmod(f, 1000, 0777); err != nil {
		t.Fatal(err)
	}
	if !f.Allows(4242, 4242, WriteAccess) {
		t.Fatal("chmod 777 did not open the file")
	}
}

func TestChgrp(t *testing.T) {
	s := newFS()
	f, _ := s.Create("g", 1000, 100, 0660, false)
	if err := s.Chgrp(f, 1000, 200); err != nil {
		t.Fatal(err)
	}
	if f.GroupID != 200 {
		t.Fatal("group not changed")
	}
	if err := s.Chgrp(f, 1000, 1<<18); err == nil {
		t.Fatal("oversize group accepted")
	}
	if err := s.Chgrp(f, 555, 300); !errors.Is(err, ErrPermEperm) {
		t.Fatal("non-owner chgrp allowed")
	}
}

func TestFilesSorted(t *testing.T) {
	s := newFS()
	s.Create("b", 1, 1, 0600, false)
	s.Create("a", 1, 1, 0600, false)
	files := s.Files()
	if len(files) != 2 || files[0].Name != "a" {
		t.Fatal("Files not sorted")
	}
}

func TestRegionAlignmentPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("unaligned region accepted")
		}
	}()
	New(100, 4096)
}
