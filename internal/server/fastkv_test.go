package server

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand/v2"
	"net/http"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"fsencr/internal/fsproto"
	"fsencr/internal/kernel"
	"fsencr/internal/kvstore"
	"fsencr/internal/memctrl"
)

// kvKeys is how many keys a twin's store "kv" is given; every fourth is
// then deleted again.
const kvKeys = 48

// kvValue is key k's value in a twin's store "kv".
func kvValue(k uint64) []byte { return []byte(fmt.Sprintf("%064d", k*7919)) }

// makeKV gives acme, on both services, store "kv" (KVCreate makes it 0660)
// with keys 0..kvKeys-1, every fourth deleted again, and a regular file
// named as a store "plain" would be. Once per twin.
func (tw *readTwin) makeKV(tb testing.TB) {
	tb.Helper()
	if tw.kvMade {
		return
	}
	tw.kvMade = true
	ctx := context.Background()
	for i, svc := range tw.svc {
		owner := tw.acme[i]
		if err := svc.KVCreate(ctx, owner, fsproto.KVCreateRequest{Store: "kv", Size: 16 * 4096}); err != nil {
			tb.Fatal(err)
		}
		for k := uint64(0); k < kvKeys; k++ {
			if err := svc.KVPut(ctx, owner, fsproto.KVPutRequest{Store: "kv", Key: k, Value: kvValue(k)}); err != nil {
				tb.Fatal(err)
			}
		}
		for k := uint64(3); k < kvKeys; k += 4 {
			if _, err := svc.KVDelete(ctx, owner, fsproto.KVDeleteRequest{Store: "kv", Key: k}); err != nil {
				tb.Fatal(err)
			}
		}
	}
	tw.create(tb, "kv/plain", 4096)
}

// kvGet sends req as who to both services (see ask).
func (tw *readTwin) kvGet(tb testing.TB, who *[3]*Session, req fsproto.KVGetRequest) (fast, serial readOutcome, offWorker bool) {
	return tw.ask(tb, who, func(svc *Service, sess *Session) (Payload, error) {
		return svc.KVGet(context.Background(), sess, req)
	})
}

// TestSerialKVGetEquivalence: a KV get answers the same whether the fast
// path serves it or a bracket does. Each get goes to a default service, to
// one with an admission log and to a SerialReads one, in order; status,
// error text and bytes must match, and every get that succeeds must have
// been served under the read lock on both fast services. The passphrase rows also pin that a store handle
// the shard holds from an earlier op (the owner's from its create, the
// member's from a get on the SerialReads service) does not let a wrong
// passphrase through.
func TestSerialKVGetEquivalence(t *testing.T) {
	tw := newReadTwin(t)
	tw.makeKV(t)
	rows := []struct {
		name   string
		who    *[3]*Session
		req    fsproto.KVGetRequest
		status int
	}{
		{"present key", &tw.acme, fsproto.KVGetRequest{Store: "kv", Key: 1}, http.StatusOK},
		{"missing key", &tw.acme, fsproto.KVGetRequest{Store: "kv", Key: kvKeys + 1}, http.StatusNotFound},
		{"deleted key", &tw.acme, fsproto.KVGetRequest{Store: "kv", Key: 3}, http.StatusNotFound},
		{"wrong passphrase", &tw.acme, fsproto.KVGetRequest{Store: "kv", Key: 1, Passphrase: "not-it"}, http.StatusForbidden},
		{"group member, 0660 store", &tw.member, fsproto.KVGetRequest{Store: "kv", Key: 2}, http.StatusOK},
		{"group member, wrong passphrase", &tw.member, fsproto.KVGetRequest{Store: "kv", Key: 2, Passphrase: "not-it"}, http.StatusForbidden},
		{"another tenant, denied", &tw.rival, fsproto.KVGetRequest{Tenant: "acme", Store: "kv", Key: 1}, http.StatusForbidden},
		{"regular file at kv/plain", &tw.acme, fsproto.KVGetRequest{Store: "plain", Key: 1}, http.StatusInternalServerError},
	}
	for _, r := range rows {
		t.Run(r.name, func(t *testing.T) {
			fast, serial, offWorker := tw.kvGet(t, r.who, r.req)
			if fast != serial {
				t.Fatalf("fast path answered %d %q (%q), the worker %d %q (%q)",
					fast.status, fast.err, fast.data, serial.status, serial.err, serial.data)
			}
			if serial.status != r.status {
				t.Fatalf("status %d (%s), want %d", serial.status, serial.err, r.status)
			}
			if serial.status == http.StatusOK && (serial.data != string(kvValue(r.req.Key)) || !offWorker) {
				t.Fatalf("value %q, off the worker %v; want %q served off the worker", serial.data, offWorker, kvValue(r.req.Key))
			}
			if r.req.Store == "plain" && !strings.Contains(serial.err, `"acme/kv/plain" is not a pool`) {
				t.Fatalf("error %q, want the pool check's", serial.err)
			}
		})
	}
}

// kvService boots a one-shard default service with store "s" of acme's
// user 1, ready for fast gets.
func kvService(tb testing.TB) (*Service, *Session) {
	tb.Helper()
	svc := New(Options{
		Shards: 1,
		MCMode: memctrl.Mode{MemEncryption: true, FileEncryption: true},
		Access: kernel.ModeDAX,
	})
	tb.Cleanup(svc.Close)
	ctx := context.Background()
	sess, err := svc.Login(ctx, "acme", 1, "pw-acme", 0)
	if err != nil {
		tb.Fatal(err)
	}
	if err := svc.KVCreate(ctx, sess, fsproto.KVCreateRequest{Store: "s", Size: 1 << 20}); err != nil {
		tb.Fatal(err)
	}
	return svc, sess
}

// versioned is key k's value at version v: k, v, then a filler that
// depends on both, so a torn or misplaced value cannot pass as whole.
func versioned(k, v uint64) []byte {
	b := make([]byte, 64)
	binary.LittleEndian.PutUint64(b, k)
	binary.LittleEndian.PutUint64(b[8:], v)
	for i := 16; i < len(b); i++ {
		b[i] = byte(k*31 + v*7 + uint64(i))
	}
	return b
}

// TestFastKVGetHistory races fast getters against a putter that writes
// every key at rising versions — the first round in an order that splits
// leaves and the root, the later ones rewriting values out of place. Every
// get must return a whole value some put wrote, no older than the version
// acknowledged before the get was issued and never older than what the
// same getter saw before; a key acknowledged before a get was issued is
// never missing. Line-granular loads audit nothing, so gets alone leave the
// audit head where it was.
func TestFastKVGetHistory(t *testing.T) {
	svc, sess := kvService(t)
	ctx := context.Background()
	sh := svc.shards[0]
	const (
		keys     = 64
		versions = 12
		getters  = 3
	)
	var issued, acked [keys]atomic.Uint64
	var stop atomic.Bool
	var wg sync.WaitGroup
	fast0 := svc.cFastReads.Value()
	for g := 0; g < getters; g++ {
		wg.Add(1)
		go func(seed uint64) {
			defer wg.Done()
			rng := rand.New(rand.NewPCG(seed, 1))
			var seen [keys]uint64
			for !stop.Load() {
				k := rng.Uint64N(keys)
				floor := acked[k].Load()
				pl, err := svc.KVGet(ctx, sess, fsproto.KVGetRequest{Store: "s", Key: k})
				if errors.Is(err, kvstore.ErrNotFound) && floor == 0 {
					continue
				}
				if err != nil {
					t.Errorf("get %d (acknowledged at version %d): %v", k, floor, err)
					return
				}
				var v uint64
				if len(pl.Data) == 64 {
					v = binary.LittleEndian.Uint64(pl.Data[8:])
				}
				whole := bytes.Equal(pl.Data, versioned(k, v))
				pl.Release()
				switch {
				case !whole:
					t.Errorf("get %d: not a value any put wrote", k)
				case v < floor || v < seen[k]:
					t.Errorf("get %d: version %d, after version %d was acknowledged and %d seen", k, v, floor, seen[k])
				case v > issued[k].Load():
					t.Errorf("get %d: version %d was never put", k, v)
				}
				seen[k] = v
			}
		}(uint64(g))
	}
	defer func() { stop.Store(true); wg.Wait() }() // also when the putter fails
	for v := uint64(1); v <= versions; v++ {
		for i := uint64(0); i < keys; i++ {
			k := i * 37 % keys // a stride, so inserts land all over the leaves
			issued[k].Store(v)
			if err := svc.KVPut(ctx, sess, fsproto.KVPutRequest{Store: "s", Key: k, Value: versioned(k, v)}); err != nil {
				t.Fatal(err)
			}
			acked[k].Store(v)
			// Breathe: back-to-back puts keep the writer lock nearly always
			// held, and every get would fall back to a bracket.
			time.Sleep(20 * time.Microsecond)
		}
	}
	stop.Store(true)
	wg.Wait()
	if svc.cFastReads.Value() == fast0 {
		t.Fatal("no get took the fast path")
	}

	drain := func() {
		if err := sh.DoSide(ctx, func() {}); err != nil {
			t.Fatal(err)
		}
	}
	drain()
	head0, fast0 := sh.Aud.HeadSeq(), svc.cFastReads.Value()
	for k := uint64(0); k < keys; k++ {
		pl, err := svc.KVGet(ctx, sess, fsproto.KVGetRequest{Store: "s", Key: k})
		if err != nil || !bytes.Equal(pl.Data, versioned(k, versions)) {
			t.Fatalf("final get %d: %q, %v", k, pl.Data, err)
		}
		pl.Release()
	}
	drain()
	if svc.cFastReads.Value() == fast0 {
		t.Fatal("no final get took the fast path")
	}
	if head := sh.Aud.HeadSeq(); head != head0 {
		t.Fatalf("audit head moved by %d records over %d gets, want 0", head-head0, keys)
	}
}

// TestFastKVGetAllocs pins the fast get's heap cost like TestFastReadAllocs
// does the read's: a warm get allocates nothing.
func TestFastKVGetAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are meaningless under the race detector")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	svc, sess := kvService(t)
	sh := svc.shards[0]
	if err := svc.KVPut(context.Background(), sess, fsproto.KVPutRequest{Store: "s", Key: 7, Value: versioned(7, 1)}); err != nil {
		t.Fatal(err)
	}
	name, dst := kvName("acme", "s"), make([]byte, maxKVValue)
	const runs = 100
	var ms runtime.MemStats
	var allocs uint64
	for i := -1; i < runs; i++ { // run -1 warms the pools
		if err := sh.DoSide(context.Background(), func() {}); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&ms)
		before := ms.Mallocs
		n, ok := sh.tryFast(sess, fsproto.TraceContext{}, fsproto.KindKVGet, name, sess.pass, func(sr *kernel.SnapshotReader) (int, error) {
			return kvstore.Lookup(sr, 0, 7, dst)
		})
		runtime.ReadMemStats(&ms)
		if !ok || n != 64 {
			t.Fatalf("get %d: %d bytes, fast %v", i, n, ok)
		}
		if i >= 0 {
			allocs += ms.Mallocs - before
		}
	}
	if per := float64(allocs) / runs; per > 0 {
		t.Fatalf("fast get: %.2f allocs/op, want 0", per)
	}
}

// TestFastKVGetTrace: a sampled get served under the read lock still exports its
// trace under its own op — one zero-length root span named kv_get — and
// gets exactly one tail-sampler verdict.
func TestFastKVGetTrace(t *testing.T) {
	svc, sess := kvService(t)
	ctx := context.Background()
	sh := svc.shards[0]
	if err := svc.KVPut(ctx, sess, fsproto.KVPutRequest{Store: "s", Key: 7, Value: versioned(7, 1)}); err != nil {
		t.Fatal(err)
	}
	verdicts := func() uint64 {
		c := sh.Snapshot().Counters
		return c["trace.kept_total"] + c["trace.dropped_total"]
	}
	if err := sh.DoSide(ctx, func() {}); err != nil {
		t.Fatal(err)
	}
	v0, fast0 := verdicts(), svc.cFastReads.Value()
	const id = 0x7e57_6e7
	pl, err := svc.KVGet(WithTrace(ctx, fsproto.TraceContext{TraceID: id, Sampled: true}), sess, fsproto.KVGetRequest{Store: "s", Key: 7})
	if err != nil {
		t.Fatal(err)
	}
	pl.Release()
	if svc.cFastReads.Value() != fast0+1 {
		t.Fatal("the get did not take the fast path")
	}
	if err := sh.DoSide(ctx, func() {}); err != nil { // drains the get's delta
		t.Fatal(err)
	}
	if v := verdicts(); v != v0+1 {
		t.Fatalf("%d sampler verdicts for one sampled get, want 1", v-v0)
	}
	var roots []string
	for _, sp := range sh.Snapshot().Spans {
		if sp.TraceID == id {
			roots = append(roots, sp.Cat+"/"+sp.Name)
		}
	}
	if len(roots) != 1 || roots[0] != "request/kv_get" {
		t.Fatalf("spans of the get's trace: %v, want one request/kv_get root", roots)
	}
}
