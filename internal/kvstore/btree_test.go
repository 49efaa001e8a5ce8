package kvstore

import (
	"bytes"
	"errors"
	"fmt"
	"testing"

	"fsencr/internal/config"
	"fsencr/internal/kernel"
	"fsencr/internal/memctrl"
	"fsencr/internal/pmem"
	"fsencr/internal/sim"
)

func mktree(t *testing.T, poolMB int) (*BTree, *pmem.Pool, *kernel.System) {
	t.Helper()
	s := kernel.Boot(config.Default(), memctrl.Mode{MemEncryption: true, FileEncryption: true}, kernel.ModeDAX)
	p := s.NewProcess(1000, 100)
	size := uint64(poolMB) << 20
	f, err := s.CreateFile(p, "kv", 0600, size, true, "pw")
	if err != nil {
		t.Fatal(err)
	}
	pool, err := pmem.Create(p, f, size)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := Create(pool, 0)
	if err != nil {
		t.Fatal(err)
	}
	return tr, pool, s
}

func val(k uint64, n int) []byte {
	v := make([]byte, n)
	for i := range v {
		v[i] = byte(k>>uint(8*(i%8))) ^ byte(i)
	}
	return v
}

func TestPutGetBasic(t *testing.T) {
	tr, _, _ := mktree(t, 4)
	if err := tr.Put(42, []byte("answer")); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 64)
	n, err := tr.Get(42, buf)
	if err != nil || string(buf[:n]) != "answer" {
		t.Fatalf("got %q err=%v", buf[:n], err)
	}
	if _, err := tr.Get(43, buf); !errors.Is(err, ErrNotFound) {
		t.Fatalf("missing key: %v", err)
	}
}

func TestOverwrite(t *testing.T) {
	tr, _, _ := mktree(t, 4)
	tr.Put(7, []byte("old"))
	tr.Put(7, []byte("newer"))
	buf := make([]byte, 64)
	n, err := tr.Get(7, buf)
	if err != nil || string(buf[:n]) != "newer" {
		t.Fatalf("got %q", buf[:n])
	}
}

func TestManyKeysWithSplits(t *testing.T) {
	tr, _, _ := mktree(t, 8)
	const N = 500
	rng := sim.NewRNG(3)
	keys := rng.Perm(N)
	for _, k := range keys {
		if err := tr.Put(uint64(k), val(uint64(k), 32)); err != nil {
			t.Fatalf("put %d: %v", k, err)
		}
	}
	buf := make([]byte, 64)
	for k := 0; k < N; k++ {
		n, err := tr.Get(uint64(k), buf)
		if err != nil {
			t.Fatalf("get %d: %v", k, err)
		}
		if !bytes.Equal(buf[:n], val(uint64(k), 32)) {
			t.Fatalf("key %d value corrupted", k)
		}
	}
}

func TestScanOrdered(t *testing.T) {
	tr, _, _ := mktree(t, 8)
	rng := sim.NewRNG(5)
	for _, k := range rng.Perm(200) {
		tr.Put(uint64(k)*3, val(uint64(k), 8))
	}
	buf := make([]byte, 16)
	var got []uint64
	err := tr.Scan(0, buf, func(k uint64, v []byte) bool {
		got = append(got, k)
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 200 {
		t.Fatalf("scan returned %d keys", len(got))
	}
	for i := 1; i < len(got); i++ {
		if got[i] <= got[i-1] {
			t.Fatalf("scan out of order at %d: %d then %d", i, got[i-1], got[i])
		}
	}
}

func TestScanFromMidAndEarlyStop(t *testing.T) {
	tr, _, _ := mktree(t, 4)
	for k := uint64(0); k < 50; k++ {
		tr.Put(k, val(k, 8))
	}
	buf := make([]byte, 16)
	var got []uint64
	tr.Scan(25, buf, func(k uint64, v []byte) bool {
		got = append(got, k)
		return len(got) < 10
	})
	if len(got) != 10 || got[0] != 25 || got[9] != 34 {
		t.Fatalf("scan window: %v", got)
	}
}

func TestLargeValues(t *testing.T) {
	tr, _, _ := mktree(t, 16)
	big := val(1, 4096)
	tr.Put(1, big)
	buf := make([]byte, 4096)
	n, err := tr.Get(1, buf)
	if err != nil || n != 4096 || !bytes.Equal(buf, big) {
		t.Fatal("4KB value corrupted")
	}
}

func TestModelBasedProperty(t *testing.T) {
	tr, _, _ := mktree(t, 16)
	model := map[uint64][]byte{}
	rng := sim.NewRNG(9)
	for i := 0; i < 800; i++ {
		k := rng.Uint64n(200)
		switch rng.Intn(3) {
		case 0, 1: // put
			v := val(k+uint64(i), 24)
			if err := tr.Put(k, v); err != nil {
				t.Fatal(err)
			}
			model[k] = v
		default: // get
			buf := make([]byte, 64)
			n, err := tr.Get(k, buf)
			want, ok := model[k]
			if !ok {
				if !errors.Is(err, ErrNotFound) {
					t.Fatalf("step %d: expected NotFound, got %v", i, err)
				}
				continue
			}
			if err != nil || !bytes.Equal(buf[:n], want) {
				t.Fatalf("step %d: key %d mismatch", i, k)
			}
		}
	}
}

func TestSharedTreeAcrossViews(t *testing.T) {
	tr, pool, s := mktree(t, 8)
	p2 := s.NewProcess(1000, 100)
	f, err := s.FS.Lookup("kv")
	if err != nil {
		t.Fatal(err)
	}
	pool2, err := pmem.Open(p2, f, 8<<20)
	if err != nil {
		t.Fatal(err)
	}
	_ = pool
	tr2 := tr.View(pool2)
	tr.Put(100, []byte("from-thread-0"))
	buf := make([]byte, 32)
	n, err := tr2.Get(100, buf)
	if err != nil || string(buf[:n]) != "from-thread-0" {
		t.Fatalf("cross-view get: %q %v", buf[:n], err)
	}
	tr2.Put(200, []byte("from-thread-1"))
	n, err = tr.Get(200, buf)
	if err != nil || string(buf[:n]) != "from-thread-1" {
		t.Fatal("cross-view reverse get failed")
	}
}

func TestDurabilityAcrossCrash(t *testing.T) {
	tr, _, s := mktree(t, 8)
	for k := uint64(0); k < 100; k++ {
		tr.Put(k, val(k, 32))
	}
	s.M.Crash(true)
	if err := s.M.Recover(); err != nil {
		t.Fatalf("recover: %v", err)
	}
	buf := make([]byte, 64)
	for k := uint64(0); k < 100; k++ {
		n, err := tr.Get(k, buf)
		if err != nil || !bytes.Equal(buf[:n], val(k, 32)) {
			t.Fatalf("key %d lost after crash: %v", k, err)
		}
	}
}

func TestOpenExisting(t *testing.T) {
	tr, pool, _ := mktree(t, 4)
	tr.Put(5, []byte("five"))
	tr2 := Open(pool, 0)
	buf := make([]byte, 16)
	n, err := tr2.Get(5, buf)
	if err != nil || string(buf[:n]) != "five" {
		t.Fatal("Open lost the tree")
	}
}

func TestSequentialInsertShape(t *testing.T) {
	// Sequential inserts must keep Get working at every step (regression
	// guard for split bookkeeping).
	tr, _, _ := mktree(t, 8)
	buf := make([]byte, 16)
	for k := uint64(0); k < 300; k++ {
		if err := tr.Put(k, val(k, 8)); err != nil {
			t.Fatal(err)
		}
		if k%37 == 0 {
			for _, probe := range []uint64{0, k / 2, k} {
				if _, err := tr.Get(probe, buf); err != nil {
					t.Fatalf("after insert %d, key %d: %v", k, probe, err)
				}
			}
		}
	}
	_ = fmt.Sprint()
}

func TestDelete(t *testing.T) {
	tr, _, _ := mktree(t, 8)
	for k := uint64(0); k < 100; k++ {
		tr.Put(k, val(k, 16))
	}
	buf := make([]byte, 32)
	// Delete the odd keys.
	for k := uint64(1); k < 100; k += 2 {
		ok, err := tr.Delete(k)
		if err != nil || !ok {
			t.Fatalf("delete %d: ok=%v err=%v", k, ok, err)
		}
	}
	for k := uint64(0); k < 100; k++ {
		_, err := tr.Get(k, buf)
		if k%2 == 0 && err != nil {
			t.Fatalf("even key %d lost: %v", k, err)
		}
		if k%2 == 1 && !errors.Is(err, ErrNotFound) {
			t.Fatalf("odd key %d still present: %v", k, err)
		}
	}
	// Double delete reports absent.
	if ok, _ := tr.Delete(1); ok {
		t.Fatal("double delete succeeded")
	}
	// Scan skips deleted keys and stays ordered.
	var got []uint64
	tr.Scan(0, buf, func(k uint64, v []byte) bool {
		got = append(got, k)
		return true
	})
	if len(got) != 50 {
		t.Fatalf("scan found %d keys", len(got))
	}
	for _, k := range got {
		if k%2 == 1 {
			t.Fatalf("scan returned deleted key %d", k)
		}
	}
	// Reinsert deleted keys.
	for k := uint64(1); k < 100; k += 2 {
		if err := tr.Put(k, val(k+1000, 16)); err != nil {
			t.Fatal(err)
		}
	}
	n, err := tr.Len()
	if err != nil || n != 100 {
		t.Fatalf("len after reinsert = %d", n)
	}
}

func TestDeleteEmptiesLeaf(t *testing.T) {
	tr, _, _ := mktree(t, 8)
	for k := uint64(0); k < 40; k++ {
		tr.Put(k, val(k, 8))
	}
	// Wipe out an entire leaf's worth of keys.
	for k := uint64(0); k < 12; k++ {
		if ok, err := tr.Delete(k); err != nil || !ok {
			t.Fatal(err)
		}
	}
	buf := make([]byte, 16)
	if _, err := tr.Get(12, buf); err != nil {
		t.Fatalf("survivor lost: %v", err)
	}
	var got []uint64
	tr.Scan(0, buf, func(k uint64, v []byte) bool { got = append(got, k); return true })
	if len(got) != 28 || got[0] != 12 {
		t.Fatalf("scan after leaf drain: %v", got[:3])
	}
}

func TestDeleteModelProperty(t *testing.T) {
	tr, _, _ := mktree(t, 16)
	model := map[uint64][]byte{}
	rng := sim.NewRNG(21)
	buf := make([]byte, 32)
	for i := 0; i < 1000; i++ {
		k := rng.Uint64n(150)
		switch rng.Intn(4) {
		case 0, 1:
			v := val(k+uint64(i), 24)
			if err := tr.Put(k, v); err != nil {
				t.Fatal(err)
			}
			model[k] = v
		case 2:
			ok, err := tr.Delete(k)
			if err != nil {
				t.Fatal(err)
			}
			_, want := model[k]
			if ok != want {
				t.Fatalf("step %d: delete(%d) = %v, model %v", i, k, ok, want)
			}
			delete(model, k)
		default:
			n, err := tr.Get(k, buf)
			want, ok := model[k]
			if !ok {
				if !errors.Is(err, ErrNotFound) {
					t.Fatalf("step %d: want NotFound got %v", i, err)
				}
				continue
			}
			if err != nil || !bytes.Equal(buf[:n], want) {
				t.Fatalf("step %d: key %d mismatch", i, k)
			}
		}
	}
}

// TestLookup: Lookup through the pool's own io.ReaderAt answers what Get
// answers, and it refuses, rather than follows, what is not a tree — a
// loader without a pool header, a node claiming more than Order keys, and a
// child pointer back to its own node, which would otherwise be walked for
// as long as the caller waited.
func TestLookup(t *testing.T) {
	tr, pool, _ := mktree(t, 1)
	for k := uint64(0); k < 40; k++ {
		if err := tr.Put(k, val(k, 24)); err != nil {
			t.Fatal(err)
		}
	}
	buf := make([]byte, 64)
	for k := uint64(0); k < 41; k++ {
		n, err := Lookup(pool, 0, k, buf)
		m, gerr := tr.Get(k, make([]byte, 64))
		if n != m || (err == nil) != (gerr == nil) || err == nil && !bytes.Equal(buf[:n], val(k, 24)) {
			t.Fatalf("key %d: Lookup %d, %v; Get %d, %v", k, n, err, m, gerr)
		}
	}
	if _, err := Lookup(bytes.NewReader(make([]byte, 4096)), 0, 1, buf); !errors.Is(err, errNotTree) {
		t.Fatalf("zeroed bytes: %v, want errNotTree", err)
	}

	off, err := pool.Alloc(nodeSize)
	if err != nil {
		t.Fatal(err)
	}
	cyclic := &node{off: off}
	cyclic.setCount(1)
	cyclic.setKey(0, 10)
	cyclic.setSlot(0, off)
	cyclic.setSlot(1, off)
	wide := &node{off: off}
	wide.buf[0] = 1
	wide.setCount(Order + 1)
	for _, bad := range []*node{cyclic, wide} {
		if err := pool.Store(pool.Addr(off), bad.buf[:]); err != nil {
			t.Fatal(err)
		}
		if err := pool.SetRoot(1, off); err != nil {
			t.Fatal(err)
		}
		if _, err := Lookup(pool, 1, 5, buf); !errors.Is(err, errNotTree) {
			t.Fatalf("node %x…: %v, want errNotTree", bad.buf[:2], err)
		}
	}
}
