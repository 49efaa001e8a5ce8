package server

import (
	"bytes"
	"context"
	"net/http/httptest"
	"runtime"
	"testing"

	"fsencr/internal/fsclient"
	"fsencr/internal/fsproto"
	"fsencr/internal/kernel"
	"fsencr/internal/memctrl"
)

// testReadService boots a one-shard service with an encrypted 4-page file
// already written, ready for read-path measurements.
func testReadService(tb testing.TB) (*Service, *Session) {
	return readServiceWith(tb, Options{
		Shards: 1,
		MCMode: memctrl.Mode{MemEncryption: true, FileEncryption: true},
		Access: kernel.ModeDAX,
	})
}

// readServiceWith is testReadService on a service booted with opts.
func readServiceWith(tb testing.TB, opts Options) (*Service, *Session) {
	tb.Helper()
	svc := New(opts)
	tb.Cleanup(svc.Close)
	ctx := context.Background()
	sess, err := svc.Login(ctx, "acme", 1, "pw-acme", 0)
	if err != nil {
		tb.Fatal(err)
	}
	if err := svc.Create(ctx, sess, fsproto.CreateRequest{
		Name: "hot.dat", Perm: 0600, Size: 4 * 4096, Encrypted: true,
	}); err != nil {
		tb.Fatal(err)
	}
	if err := svc.Write(ctx, sess, fsproto.WriteRequest{
		Name: "hot.dat", Data: bytes.Repeat([]byte{0x5A}, 4*4096),
	}); err != nil {
		tb.Fatal(err)
	}
	return svc, sess
}

// TestServiceReadPooled checks the pooled read path end to end: correct
// bytes, and a released buffer serving the next request without bleeding
// stale lengths or contents across requests.
func TestServiceReadPooled(t *testing.T) {
	svc, sess := testReadService(t)
	ctx := context.Background()
	for i := 0; i < 3; i++ {
		pl, err := svc.Read(ctx, sess, fsproto.ReadRequest{Name: "hot.dat", Offset: 4096, Length: 4096})
		if err != nil {
			t.Fatal(err)
		}
		if len(pl.Data) != 4096 {
			t.Fatalf("read %d: got %d bytes, want 4096", i, len(pl.Data))
		}
		for j, b := range pl.Data {
			if b != 0x5A {
				t.Fatalf("read %d: byte %d is %#x, want 0x5A", i, j, b)
			}
		}
		pl.Release()
	}
	// Short read after a full-page one: the pooled buffer must be re-sliced
	// to the requested length, not the previous request's.
	pl, err := svc.Read(ctx, sess, fsproto.ReadRequest{Name: "hot.dat", Offset: 0, Length: 64})
	if err != nil {
		t.Fatal(err)
	}
	if len(pl.Data) != 64 {
		t.Fatalf("short read returned %d bytes, want 64", len(pl.Data))
	}
	pl.Release()
}

// TestServerReadPathZeroAlloc pins the bracket's read datapath at zero
// heap allocations per request once session state is warm: pooled payload
// buffer, cached mapping and file key, and the controller's batched page
// path for the page-sized copy.
func TestServerReadPathZeroAlloc(t *testing.T) {
	svc, sess := testReadService(t)
	sh := svc.shards[0]
	name := fullName("acme", "hot.dat")
	// Warm-up: first touch faults pages, creates the mapping, and caches
	// the derived file key.
	warm := newPayload(4096)
	if err := sh.readInto(sess, name, sess.pass, 0, warm.Data); err != nil {
		t.Fatal(err)
	}
	warm.Release()
	allocs := testing.AllocsPerRun(200, func() {
		pl := newPayload(4096)
		if err := sh.readInto(sess, name, sess.pass, 0, pl.Data); err != nil {
			t.Fatal(err)
		}
		pl.Release()
	})
	if allocs != 0 {
		t.Fatalf("server read path: %.1f allocs/op, want 0", allocs)
	}
}

// BenchmarkServerReadPath measures the bracket's cost of one page-sized
// read request, pooled-buffer lifecycle included. No other caller touches
// the shard, so calling in from the benchmark goroutine is race-free.
func BenchmarkServerReadPath(b *testing.B) {
	svc, sess := testReadService(b)
	sh := svc.shards[0]
	name := fullName("acme", "hot.dat")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pl := newPayload(4096)
		if err := sh.readInto(sess, name, sess.pass, uint64(i%4)*4096, pl.Data); err != nil {
			b.Fatal(err)
		}
		pl.Release()
	}
}

// TestServiceAllocsPerOp pins the heap allocations of one op called
// directly on an idle one-shard service, client and wire left out: a read
// and a KV get served under the read lock, a 256-byte write and a 64-byte KV
// put in brackets on the caller's goroutine. The counts are exact; an op that
// starts making garbage shows here before it shows in a GC count.
func TestServiceAllocsPerOp(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are meaningless under the race detector")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	svc, sess := testReadService(t)
	ctx := context.Background()
	if err := svc.KVCreate(ctx, sess, fsproto.KVCreateRequest{Store: "s", Size: 1 << 20}); err != nil {
		t.Fatal(err)
	}
	data, value := bytes.Repeat([]byte{0xA5}, 256), bytes.Repeat([]byte{0x3C}, 64)
	i := 0
	for _, c := range []struct {
		op   string
		want float64
		fn   func() error
	}{
		{"read", 2, func() error {
			pl, err := svc.Read(ctx, sess, fsproto.ReadRequest{Name: "hot.dat", Offset: uint64(i%4) * 4096, Length: 4096})
			pl.Release()
			return err
		}},
		{"write", 4, func() error {
			return svc.Write(ctx, sess, fsproto.WriteRequest{Name: "hot.dat", Offset: uint64(i%64) * 256, Data: data})
		}},
		{"kv_put", 7, func() error {
			return svc.KVPut(ctx, sess, fsproto.KVPutRequest{Store: "s", Key: uint64(i % 8), Value: value})
		}},
		{"kv_get", 2, func() error {
			pl, err := svc.KVGet(ctx, sess, fsproto.KVGetRequest{Store: "s", Key: uint64(i % 8)})
			pl.Release()
			return err
		}},
	} {
		// Warm the op's state, then fold in the reads' deltas outside the window.
		for i = 0; i < 16; i++ {
			if err := c.fn(); err != nil {
				t.Fatalf("%s: %v", c.op, err)
			}
		}
		if err := svc.shards[0].DoSide(ctx, func() {}); err != nil {
			t.Fatal(err)
		}
		got := testing.AllocsPerRun(100, func() {
			i++
			if err := c.fn(); err != nil {
				t.Fatalf("%s: %v", c.op, err)
			}
		})
		t.Logf("%s: %v allocs/op", c.op, got)
		if got != c.want {
			t.Errorf("%s: %v allocs/op, want %v", c.op, got, c.want)
		}
	}
}

// TestClientAllocsPerOp pins the heap allocations of one product-client
// round trip over loopback to an idle one-shard service: a 4 KiB read, a 4
// KiB write, a 256-byte write, a 64-byte KV get and a 64-byte KV put. The
// count is the whole process's, so it holds the server's half
// (TestServiceAllocsPerOp) plus the client's and the wire's. The puts go
// first, so the gets find their keys. The counts are exact.
func TestClientAllocsPerOp(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are meaningless under the race detector")
	}
	svc, _ := testReadService(t)
	hs := httptest.NewServer(svc.Mux())
	t.Cleanup(hs.Close)
	cl := fsclient.Dial(hs.URL)
	t.Cleanup(cl.Close)
	if err := cl.Login("acme", 1, "pw-acme"); err != nil {
		t.Fatal(err)
	}
	if err := cl.KVCreate(fsproto.KVCreateRequest{Store: "s", Size: 1 << 20}); err != nil {
		t.Fatal(err)
	}
	page, small, value := bytes.Repeat([]byte{0xA5}, 4096), bytes.Repeat([]byte{0xA5}, 256), bytes.Repeat([]byte{0x3C}, 64)
	i := 0
	for _, c := range []struct {
		op   string
		want float64
		fn   func() error
	}{
		{"read 4 KiB", 18, func() error {
			_, err := cl.Read(fsproto.ReadRequest{Name: "hot.dat", Offset: uint64(i%4) * 4096, Length: 4096})
			return err
		}},
		{"write 4 KiB", 18, func() error {
			return cl.Write(fsproto.WriteRequest{Name: "hot.dat", Offset: uint64(i%4) * 4096, Data: page})
		}},
		{"write 256 B", 19, func() error {
			return cl.Write(fsproto.WriteRequest{Name: "hot.dat", Offset: uint64(i%64) * 256, Data: small})
		}},
		{"kv_put 64 B", 21, func() error {
			return cl.KVPut(fsproto.KVPutRequest{Store: "s", Key: uint64(i % 8), Value: value})
		}},
		{"kv_get 64 B", 17, func() error {
			_, err := cl.KVGet(fsproto.KVGetRequest{Store: "s", Key: uint64(i % 8)})
			return err
		}},
	} {
		for i = 0; i < 16; i++ {
			if err := c.fn(); err != nil {
				t.Fatalf("%s: %v", c.op, err)
			}
		}
		got := testing.AllocsPerRun(100, func() {
			i++
			if err := c.fn(); err != nil {
				t.Fatalf("%s: %v", c.op, err)
			}
		})
		t.Logf("%s: %v allocs/op", c.op, got)
		if got != c.want {
			t.Errorf("%s: %v allocs/op, want %v", c.op, got, c.want)
		}
	}
}
