package pmem

import (
	"bytes"
	"errors"
	"testing"

	"fsencr/internal/config"
	"fsencr/internal/fs"
	"fsencr/internal/kernel"
	"fsencr/internal/memctrl"
)

func mkpool(t *testing.T, size uint64) (*Pool, *kernel.System, *kernel.Process, *fs.File) {
	t.Helper()
	s := kernel.Boot(config.Default(), memctrl.Mode{MemEncryption: true, FileEncryption: true}, kernel.ModeDAX)
	p := s.NewProcess(1000, 100)
	f, err := s.CreateFile(p, "pool", 0600, size, true, "pw")
	if err != nil {
		t.Fatal(err)
	}
	pool, err := Create(p, f, size)
	if err != nil {
		t.Fatal(err)
	}
	return pool, s, p, f
}

func TestCreateAndOpen(t *testing.T) {
	pool, s, _, f := mkpool(t, 1<<20)
	p2 := s.NewProcess(1000, 100)
	pool2, err := Open(p2, f, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	// Both views address the same bytes via offsets.
	off, err := pool.Alloc(64)
	if err != nil {
		t.Fatal(err)
	}
	if err := pool.Store(pool.Addr(off), []byte("shared")); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, 6)
	if err := pool2.Load(pool2.Addr(off), got); err != nil {
		t.Fatal(err)
	}
	if string(got) != "shared" {
		t.Fatalf("got %q", got)
	}
}

func TestOpenRejectsNonPool(t *testing.T) {
	s := kernel.Boot(config.Default(), memctrl.Mode{}, kernel.ModeDAX)
	p := s.NewProcess(1000, 100)
	f, _ := s.CreateFile(p, "raw", 0600, 1<<20, false, "")
	if _, err := Open(p, f, 1<<20); err == nil {
		t.Fatal("opened a non-pool file")
	}
}

func TestAllocAlignmentAndProgress(t *testing.T) {
	pool, _, _, _ := mkpool(t, 1<<20)
	a, _ := pool.Alloc(1)
	b, _ := pool.Alloc(65)
	if a%config.LineSize != 0 || b%config.LineSize != 0 {
		t.Fatal("allocations not line aligned")
	}
	if b != a+config.LineSize {
		t.Fatalf("1-byte alloc consumed %d bytes", b-a)
	}
	c, _ := pool.Alloc(64)
	if c != b+2*config.LineSize {
		t.Fatal("65-byte alloc did not round to two lines")
	}
}

func TestPoolFull(t *testing.T) {
	pool, _, _, _ := mkpool(t, 64<<10)
	if _, err := pool.Alloc(1 << 20); !errors.Is(err, ErrPoolFull) {
		t.Fatalf("overcommit error = %v", err)
	}
}

func TestRootSlots(t *testing.T) {
	pool, _, _, _ := mkpool(t, 1<<20)
	if err := pool.SetRoot(3, 0xDEAD); err != nil {
		t.Fatal(err)
	}
	v, err := pool.GetRoot(3)
	if err != nil || v != 0xDEAD {
		t.Fatalf("root = %#x err=%v", v, err)
	}
	v, _ = pool.GetRoot(0)
	if v != 0 {
		t.Fatal("fresh root slot not zero")
	}
}

func TestRootSlotBoundsPanic(t *testing.T) {
	pool, _, _, _ := mkpool(t, 1<<20)
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-range root slot accepted")
		}
	}()
	pool.SetRoot(1000, 1)
}

func TestOffAddrInverse(t *testing.T) {
	pool, _, _, _ := mkpool(t, 1<<20)
	off, _ := pool.Alloc(64)
	if pool.Off(pool.Addr(off)) != off {
		t.Fatal("Off(Addr(x)) != x")
	}
}

func TestStoreU64LoadU64(t *testing.T) {
	pool, _, _, _ := mkpool(t, 1<<20)
	off, _ := pool.Alloc(64)
	if err := pool.StoreU64(pool.Addr(off), 0x0123456789ABCDEF); err != nil {
		t.Fatal(err)
	}
	v, err := pool.LoadU64(pool.Addr(off))
	if err != nil || v != 0x0123456789ABCDEF {
		t.Fatalf("v=%#x err=%v", v, err)
	}
}

func TestDataDurableAcrossCrash(t *testing.T) {
	pool, s, p, _ := mkpool(t, 1<<20)
	off, _ := pool.Alloc(64)
	payload := []byte("crash-proof payload bytes 123456")
	if err := pool.Store(pool.Addr(off), payload); err != nil {
		t.Fatal(err)
	}
	s.M.Crash(true)
	if err := s.M.Recover(); err != nil {
		t.Fatalf("recover: %v", err)
	}
	got := make([]byte, len(payload))
	if err := p.Read(pool.Addr(off), got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatalf("payload corrupted after crash: %q", got)
	}
	// Allocator state is durable too.
	next, _ := pool.Alloc(64)
	if next <= off {
		t.Fatal("allocator rewound after crash")
	}
}
