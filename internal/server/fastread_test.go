package server

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net/http"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"fsencr/internal/fs"
	"fsencr/internal/fsproto"
	"fsencr/internal/kernel"
	"fsencr/internal/memctrl"
)

// TestConcurrentReadEquivalence races N snapshot readers against a live
// writer: every read must observe a consistent page — the pre-write
// pattern or the post-write pattern, never a mix — and the fast path must
// actually have served reads (this is the test that runs under -race in
// `make race`, probing the read lock's happens-before edges).
func TestConcurrentReadEquivalence(t *testing.T) {
	svc, sess := testReadService(t)
	ctx := context.Background()

	const (
		readers  = 4
		writes   = 40
		pageOff  = 4096
		pageSize = 4096
	)
	old, new_ := byte(0x5A), byte(0xA5)
	oldPage := bytes.Repeat([]byte{old}, pageSize)
	newPage := bytes.Repeat([]byte{new_}, pageSize)

	var stop atomic.Bool
	var mixed atomic.Uint64
	var wg sync.WaitGroup
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !stop.Load() {
				pl, err := svc.Read(ctx, sess, fsproto.ReadRequest{Name: "hot.dat", Offset: pageOff, Length: pageSize})
				if err != nil {
					t.Errorf("read: %v", err)
					return
				}
				first := pl.Data[0]
				if first != old && first != new_ {
					mixed.Add(1)
				} else {
					for _, b := range pl.Data {
						if b != first {
							mixed.Add(1)
							break
						}
					}
				}
				pl.Release()
			}
		}()
	}
	// The race only probes the read lock if snapshot reads are in flight when
	// the writes land, so the writer waits for the first one. (Sampling the
	// counter once after the run instead failed 1–2 in 20 under -race on two
	// cores: 40 writes can be over before a reader's first read returns.)
	for deadline := time.Now().Add(10 * time.Second); svc.cFastReads.Value() == 0; time.Sleep(100 * time.Microsecond) {
		if time.Now().After(deadline) {
			stop.Store(true)
			wg.Wait()
			t.Fatal("fast path never served a read")
		}
	}
	for i := 0; i < writes; i++ {
		data := newPage
		if i%2 == 1 {
			data = oldPage
		}
		if err := svc.Write(ctx, sess, fsproto.WriteRequest{Name: "hot.dat", Offset: pageOff, Data: data}); err != nil {
			t.Fatalf("write %d: %v", i, err)
		}
		// Breathe between writes: back-to-back mutation batches would keep
		// the writer lock nearly always held, and every read would take the
		// (correct, but untested-here) fallback path.
		time.Sleep(200 * time.Microsecond)
	}
	stop.Store(true)
	wg.Wait()

	if n := mixed.Load(); n != 0 {
		t.Fatalf("%d torn reads observed a mix of pre- and post-write bytes", n)
	}
}

// TestFastReadMultiPage checks a fast read of the whole 4-page file: it
// decrypts to exactly the written plaintext, and the deferred side effects
// reach the controller at the next mutation — one audit record per DF page,
// counters advanced, audit chain intact.
func TestFastReadMultiPage(t *testing.T) {
	svc, sess := testReadService(t)
	ctx := context.Background()
	sh := svc.shards[0]
	mcReads := func() uint64 {
		// The controller's stats set belongs to the brackets; read it in one.
		var v uint64
		if err := sh.DoSide(ctx, func() { v = sh.Sys.M.MC.Stats().Get("mc.reads") }); err != nil {
			t.Fatal(err)
		}
		return v
	}

	before, head0 := mcReads(), sh.Aud.HeadSeq()
	pl, err := svc.Read(ctx, sess, fsproto.ReadRequest{Name: "hot.dat", Offset: 0, Length: 4 * 4096})
	if err != nil {
		t.Fatal(err)
	}
	for i, b := range pl.Data {
		if b != 0x5A {
			t.Fatalf("byte %d is %#x, want 0x5A", i, b)
		}
	}
	pl.Release()
	if svc.MetricsSnapshot().Counters["server.fast_reads_total"] == 0 {
		t.Fatal("full-file read did not take the fast path")
	}
	mcReads() // a side task drains the read's delta, and only that
	if head := sh.Aud.HeadSeq(); head != head0+4 {
		t.Fatalf("audit head advanced by %d records over a 4-page read, want one per DF page", head-head0)
	}

	// The read's side effects are deferred until the next bracket: force one and check the controller accounted the lines.
	if err := svc.Write(ctx, sess, fsproto.WriteRequest{Name: "hot.dat", Offset: 0, Data: bytes.Repeat([]byte{0x5A}, 64)}); err != nil {
		t.Fatal(err)
	}
	after := mcReads()
	if after < before+4*64 {
		t.Fatalf("mc.reads %d -> %d, want >= +%d deferred line reads folded in", before, after, 4*64)
	}
	if err := svc.VerifyAudit(); err != nil {
		t.Fatalf("audit chain broken after deferred drain: %v", err)
	}
}

// TestFastReadAuditsPagesOnly: a fast read leaves a page's audit record
// only for a page it loads whole, as the live page datapath does. A partial
// page — even one that touches all 64 lines — is line loads on the live
// path, which audit nothing, so it audits nothing here either.
func TestFastReadAuditsPagesOnly(t *testing.T) {
	svc, sess := testReadService(t)
	ctx := context.Background()
	sh := svc.shards[0]
	for _, r := range []struct {
		off     uint64
		length  int
		records uint64
	}{
		{0, 64, 0}, {100, 200, 0}, {8, 4088, 0}, {0, 4095, 0}, {4000, 200, 0},
		{4096, 4096, 1}, {100, 3 * 4096, 2},
	} {
		head0, fast0 := sh.Aud.HeadSeq(), svc.cFastReads.Value()
		pl, err := svc.Read(ctx, sess, fsproto.ReadRequest{Name: "hot.dat", Offset: r.off, Length: r.length})
		if err != nil || !bytes.Equal(pl.Data, bytes.Repeat([]byte{0x5A}, r.length)) {
			t.Fatalf("read %d at %d: %v", r.length, r.off, err)
		}
		pl.Release()
		if err := sh.DoSide(ctx, func() {}); err != nil { // drains the read's delta
			t.Fatal(err)
		}
		if svc.cFastReads.Value() != fast0+1 {
			t.Fatalf("read %d at %d did not take the fast path", r.length, r.off)
		}
		if head := sh.Aud.HeadSeq(); head != head0+r.records {
			t.Errorf("read %d at %d: %d audit records, want %d", r.length, r.off, head-head0, r.records)
		}
	}
}

// TestReadDeltasBounded: a tenant that only reads must not grow the deferred
// side-effect accumulator until somebody writes. 10 000 fast reads with no
// write in between keep it under the drain threshold at every sample (the
// lone reader that reaches the threshold drains before its read returns);
// one side task afterwards leaves it empty, and every page read — fast or
// fallen back to admission — left exactly one record on a chain that
// verifies.
func TestReadDeltasBounded(t *testing.T) {
	svc, sess := testReadService(t)
	ctx := context.Background()
	sh := svc.shards[0]
	// The count is read under both locks a push and a drain write it under.
	pending := func() int {
		sh.rmu.RLock()
		defer sh.rmu.RUnlock()
		sh.readMu.Lock()
		defer sh.readMu.Unlock()
		return sh.pendingReads
	}
	drain := func() {
		if err := sh.DoSide(ctx, func() {}); err != nil {
			t.Fatal(err)
		}
	}

	drain()
	head0, fast0 := sh.Aud.HeadSeq(), svc.cFastReads.Value()
	const wantFast = 10_000
	reads, worst := uint64(0), 0
	for svc.cFastReads.Value()-fast0 < wantFast {
		pl, err := svc.Read(ctx, sess, fsproto.ReadRequest{Name: "hot.dat", Offset: 4096, Length: 4096})
		if err != nil {
			t.Fatalf("read %d: %v", reads, err)
		}
		pl.Release()
		worst = max(worst, pending())
		if reads++; reads > 4*wantFast {
			t.Fatalf("only %d of %d reads took the fast path", svc.cFastReads.Value()-fast0, reads)
		}
	}
	if worst > deltaDrainThreshold {
		t.Errorf("%d read deltas pending at the worst sample, want <= %d", worst, deltaDrainThreshold)
	}
	drain()
	if n := pending(); n != 0 {
		t.Errorf("after a side task: %d reads pending, want 0", n)
	}
	if head := sh.Aud.HeadSeq(); head != head0+reads {
		t.Errorf("audit head advanced by %d records over %d page reads", head-head0, reads)
	}
	if err := svc.VerifyAudit(); err != nil {
		t.Errorf("audit chain after %d deferred reads: %v", reads, err)
	}
	t.Logf("%d reads (%d fast), worst pending %d", reads, svc.cFastReads.Value()-fast0, worst)
}

// TestDrainKeepsReadOrder: one drain applies its reads in the order they
// completed. Pages 0–3 of hot.dat, read one request each and drained once,
// leave their audit records in the same order on a fast service, a logged
// fast one and a SerialReads one, whose reads audit in brackets as they
// come; and the logged shard's one RecReadDeltas record lists the four
// sampled traces in request order.
func TestDrainKeepsReadOrder(t *testing.T) {
	opts := Options{Shards: 1, MCMode: memctrl.Mode{MemEncryption: true, FileEncryption: true}, Access: kernel.ModeDAX}
	var pages [3][]uint64 // fast, logged, serial
	for i := range pages {
		o := opts
		o.AdmissionLog, o.SerialReads = i == 1, i == 2
		svc, sess := readServiceWith(t, o)
		ctx, sh := context.Background(), svc.shards[0]
		if err := sh.DoSide(ctx, func() {}); err != nil {
			t.Fatal(err)
		}
		head0, fast0 := sh.Aud.HeadSeq(), svc.cFastReads.Value()
		logLen0, err := svc.LogLen(ctx, 0)
		if err != nil {
			t.Fatal(err)
		}
		var want []fsproto.ReadTrace
		for p := uint64(0); p < 4; p++ {
			tc := fsproto.TraceContext{TraceID: 0x100 + p, Sampled: true}
			want = append(want, fsproto.ReadTrace{TraceID: tc.TraceID, Kind: fsproto.KindRead})
			pl, err := svc.Read(WithTrace(ctx, tc), sess, fsproto.ReadRequest{Name: "hot.dat", Offset: p * 4096, Length: 4096})
			if err != nil {
				t.Fatal(err)
			}
			pl.Release()
		}
		wantFast := uint64(4)
		if o.SerialReads {
			wantFast = 0
		}
		if fast := svc.cFastReads.Value() - fast0; fast != wantFast {
			t.Fatalf("service %d: %d reads served under the read lock, want %d", i, fast, wantFast)
		}
		// The drain: a side task, which then reads the audit records back.
		if err := sh.DoSide(ctx, func() {
			for _, r := range sh.Aud.Records() {
				if r.Seq >= head0 {
					pages[i] = append(pages[i], r.Page)
				}
			}
		}); err != nil {
			t.Fatal(err)
		}
		if i != 1 {
			continue
		}
		segs, err := svc.RecordsFrom(ctx, 0, logLen0)
		if err != nil {
			t.Fatal(err)
		}
		var rd fsproto.LogReader
		var recs []fsproto.LogRecord
		for b := bytes.Join(segs, nil); len(b) > 0; {
			var rec fsproto.LogRecord
			if b, err = rd.Next(b, &rec); err != nil {
				t.Fatal(err)
			}
			recs = append(recs, rec)
		}
		if len(recs) != 1 || recs[0].Kind != fsproto.RecReadDeltas || fmt.Sprint(recs[0].Traces) != fmt.Sprint(want) {
			t.Errorf("the drain logged %+v, want one read_deltas record with traces %v", recs, want)
		}
	}
	if len(pages[2]) != 4 {
		t.Fatalf("the serial service audited pages %v, want four", pages[2])
	}
	for i, name := range []string{"fast", "logged fast"} {
		if fmt.Sprint(pages[i]) != fmt.Sprint(pages[2]) {
			t.Errorf("the %s service audited pages %v, the serial one %v", name, pages[i], pages[2])
		}
	}
}

// TestFastReadGating: a -serial-reads service must never enter the fast
// path — not even its fallback branch — and its stat, served as side work,
// answers the inode's values.
func TestFastReadGating(t *testing.T) {
	t.Run("serial-reads", func(t *testing.T) {
		svc := New(Options{
			Shards:      1,
			MCMode:      memctrl.Mode{MemEncryption: true, FileEncryption: true},
			Access:      kernel.ModeDAX,
			SerialReads: true,
		})
		t.Cleanup(svc.Close)
		ctx := context.Background()
		sess, err := svc.Login(ctx, "acme", 1, "pw", 0)
		if err != nil {
			t.Fatal(err)
		}
		if err := svc.Create(ctx, sess, fsproto.CreateRequest{Name: "f.dat", Perm: 0640, Size: 8192, Encrypted: true}); err != nil {
			t.Fatal(err)
		}
		pl, err := svc.Read(ctx, sess, fsproto.ReadRequest{Name: "f.dat", Length: 4096})
		if err != nil {
			t.Fatal(err)
		}
		pl.Release()
		resp, err := svc.Stat(ctx, sess, fsproto.StatRequest{Name: "f.dat"})
		if err != nil {
			t.Fatal(err)
		}
		if resp.Size != 8192 || resp.Pages != 2 || resp.Perm != 0640 {
			t.Fatalf("worker stat = %+v", resp)
		}
		snap := svc.MetricsSnapshot()
		if snap.Counters["server.fast_reads_total"] != 0 || snap.Counters["server.fast_read_fallbacks_total"] != 0 {
			t.Fatal("-serial-reads service entered the fast path")
		}
	})
}

// readTwin is one history played on three services: a default one and one
// with an admission log, whose reads take the fast path, and a SerialReads
// one, whose reads all run in brackets. Tenant acme's user 1 owns the
// files, its user 2 (same passphrase) is a group member; tenant rival has a
// session too.
type readTwin struct {
	svc                 [3]*Service // fast, fast and logged, serial
	acme, member, rival [3]*Session
	kvMade              bool
}

// readOutcome is what a client sees of a read.
type readOutcome struct {
	status int
	err    string
	data   string
}

func newReadTwin(tb testing.TB) *readTwin {
	tb.Helper()
	tw := &readTwin{}
	for i := range tw.svc {
		svc := New(Options{
			Shards:       1,
			MCMode:       memctrl.Mode{MemEncryption: true, FileEncryption: true},
			Access:       kernel.ModeDAX,
			AdmissionLog: i == 1,
			SerialReads:  i == 2,
		})
		tb.Cleanup(svc.Close)
		var err error
		if tw.acme[i], err = svc.Login(context.Background(), "acme", 1, "pw-acme", 0); err != nil {
			tb.Fatal(err)
		}
		if tw.member[i], err = svc.Login(context.Background(), "acme", 2, "pw-acme", 0); err != nil {
			tb.Fatal(err)
		}
		if tw.rival[i], err = svc.Login(context.Background(), "rival", 1, "pw-rival", 0); err != nil {
			tb.Fatal(err)
		}
		tw.svc[i] = svc
	}
	return tw
}

// create makes acme's encrypted file name of size bytes on both services
// and writes all of it, so the fast path finds every page tagged.
func (tw *readTwin) create(tb testing.TB, name string, size uint64) {
	tb.Helper()
	ctx := context.Background()
	body := make([]byte, size)
	for i := range body {
		body[i] = byte(i*31 + int(size))
	}
	for i, svc := range tw.svc {
		if err := svc.Create(ctx, tw.acme[i], fsproto.CreateRequest{Name: name, Perm: 0600, Size: size, Encrypted: true}); err != nil {
			tb.Fatal(err)
		}
		if size > 0 {
			if err := svc.Write(ctx, tw.acme[i], fsproto.WriteRequest{Name: name, Data: body}); err != nil {
				tb.Fatal(err)
			}
		}
	}
}

// read sends req as acme (or rival) to the services (see ask).
func (tw *readTwin) read(tb testing.TB, asRival bool, req fsproto.ReadRequest) (fast, serial readOutcome, offWorker bool) {
	who := &tw.acme
	if asRival {
		who = &tw.rival
	}
	return tw.ask(tb, who, func(svc *Service, sess *Session) (Payload, error) {
		return svc.Read(context.Background(), sess, req)
	})
}

// ask sends one request, call, as who to the three services and returns the
// fast and the serial outcome, and whether both fast services served it
// under the read lock. The two fast services must answer alike.
func (tw *readTwin) ask(tb testing.TB, who *[3]*Session, call func(*Service, *Session) (Payload, error)) (fast, serial readOutcome, offWorker bool) {
	tb.Helper()
	ctx := context.Background()
	var out [3]readOutcome
	offWorker = true
	for i, svc := range tw.svc {
		// A side task opens and closes a bracket of its own, so the read
		// finds the lock free.
		if err := svc.shards[0].DoSide(ctx, func() {}); err != nil {
			tb.Fatal(err)
		}
		fast0 := svc.cFastReads.Value()
		pl, err := call(svc, who[i])
		if err != nil {
			out[i].status, _ = httpStatus(err)
			out[i].err = err.Error()
		} else {
			out[i].status, out[i].data = http.StatusOK, string(pl.Data)
			pl.Release()
		}
		if i < 2 {
			offWorker = offWorker && svc.cFastReads.Value() != fast0
		}
	}
	if out[1] != out[0] {
		tb.Fatalf("the logged service answered %d %q (%q), the unlogged one %d %q (%q)",
			out[1].status, out[1].err, out[1].data, out[0].status, out[0].err, out[0].data)
	}
	return out[0], out[2], offWorker
}

// TestSerialReadsEquivalence: the fast path never answers differently from
// a bracket. Each read goes to a default service, to one with an admission
// log and to a SerialReads one; status, error text and bytes must match, and
// every read that succeeds must have been served under the read lock on both
// fast services (else the comparison proves nothing). The EOF rows pin that the fast path bounds a
// read by the file's size, not by its last page.
func TestSerialReadsEquivalence(t *testing.T) {
	tw := newReadTwin(t)
	tw.create(t, "small.dat", 100)
	tw.create(t, "big.dat", 3*4096)
	rows := []struct {
		name    string
		asRival bool
		req     fsproto.ReadRequest
		status  int
	}{
		{"ends at size", false, fsproto.ReadRequest{Name: "small.dat", Length: 100}, http.StatusOK},
		{"one byte past size", false, fsproto.ReadRequest{Name: "small.dat", Length: 101}, http.StatusBadRequest},
		{"rest of the last page", false, fsproto.ReadRequest{Name: "small.dat", Length: 4096}, http.StatusBadRequest},
		{"offset at size, length 0", false, fsproto.ReadRequest{Name: "small.dat", Offset: 100}, http.StatusOK},
		{"offset past size", false, fsproto.ReadRequest{Name: "small.dat", Offset: 200, Length: 10}, http.StatusBadRequest},
		{"partial cross-page range", false, fsproto.ReadRequest{Name: "big.dat", Offset: 100, Length: 3*4096 - 200}, http.StatusOK},
		{"whole multi-page file", false, fsproto.ReadRequest{Name: "big.dat", Length: 3 * 4096}, http.StatusOK},
		{"wrong passphrase", false, fsproto.ReadRequest{Name: "small.dat", Length: 100, Passphrase: "not-it"}, http.StatusForbidden},
		{"another tenant, denied", true, fsproto.ReadRequest{Tenant: "acme", Name: "small.dat", Length: 100}, http.StatusForbidden},
	}
	for _, r := range rows {
		t.Run(r.name, func(t *testing.T) {
			fast, serial, offWorker := tw.read(t, r.asRival, r.req)
			if fast != serial {
				t.Fatalf("fast path answered %d %q (%d bytes), the worker %d %q (%d bytes)",
					fast.status, fast.err, len(fast.data), serial.status, serial.err, len(serial.data))
			}
			if serial.status != r.status {
				t.Fatalf("status %d (%s), want %d", serial.status, serial.err, r.status)
			}
			if serial.status == http.StatusOK && (len(serial.data) != r.req.Length || !offWorker) {
				t.Fatalf("%d bytes, off the worker %v; want %d bytes served off the worker", len(serial.data), offWorker, r.req.Length)
			}
		})
	}
}

// FuzzReadEquivalence is TestSerialReadsEquivalence over arbitrary reads:
// a file size, an offset, a length and the right or a wrong passphrase.
// Sizes are folded onto a hundred files (0, 100, …, 9900 bytes) created on
// first use, so a long run cannot exhaust the inode space. Its KV arm (kv
// set) is TestSerialKVGetEquivalence over arbitrary gets of store "kv": the
// asker (sizeIdx: owner, group member, another tenant), the key (off,
// folded onto the stored, deleted and missing ones), the store (length: a
// multiple of 7 asks for the regular file "plain") and the passphrase.
func FuzzReadEquivalence(f *testing.F) {
	f.Add(uint8(1), uint64(0), 100, true, false)       // ends at size
	f.Add(uint8(1), uint64(0), 101, true, false)       // one byte past size
	f.Add(uint8(1), uint64(0), 4096, true, false)      // rest of the last page
	f.Add(uint8(1), uint64(100), 0, true, false)       // offset at size, length 0
	f.Add(uint8(1), uint64(200), 10, true, false)      // offset past size
	f.Add(uint8(99), uint64(100), 9700, true, false)   // partial cross-page range
	f.Add(uint8(1), uint64(0), 100, false, false)      // wrong passphrase
	f.Add(uint8(41), uint64(1<<64-8), 16, true, false) // offset + length wraps
	f.Add(uint8(0), uint64(1), 1, true, true)          // KV: present key
	f.Add(uint8(0), uint64(3), 1, true, true)          // KV: deleted key
	f.Add(uint8(0), uint64(kvKeys+1), 1, true, true)   // KV: missing key
	f.Add(uint8(1), uint64(2), 1, true, true)          // KV: group member
	f.Add(uint8(1), uint64(2), 1, false, true)         // KV: group member, wrong passphrase
	f.Add(uint8(2), uint64(1), 1, true, true)          // KV: another tenant
	f.Add(uint8(0), uint64(1), 7, true, true)          // KV: regular file at kv/plain
	tw := newReadTwin(f)
	made := map[uint64]bool{}
	f.Fuzz(func(t *testing.T, sizeIdx uint8, off uint64, length int, rightPass, kv bool) {
		if kv {
			tw.makeKV(t)
			who := [...]*[3]*Session{&tw.acme, &tw.member, &tw.rival}[sizeIdx%3]
			req := fsproto.KVGetRequest{Tenant: "acme", Store: "kv", Key: off % (kvKeys + 4)}
			if length%7 == 0 {
				req.Store = "plain"
			}
			if !rightPass {
				req.Passphrase = "not-it"
			}
			if fast, serial, _ := tw.kvGet(t, who, req); fast != serial {
				t.Fatalf("get %+v as asker %d: fast path %d %q (%q), worker %d %q (%q)",
					req, sizeIdx%3, fast.status, fast.err, fast.data, serial.status, serial.err, serial.data)
			}
			return
		}
		size := uint64(sizeIdx%100) * 100
		name := fmt.Sprintf("f%d.dat", size)
		if !made[size] {
			tw.create(t, name, size)
			made[size] = true
		}
		req := fsproto.ReadRequest{Name: name, Offset: off, Length: length}
		if !rightPass {
			req.Passphrase = "not-it"
		}
		if fast, serial, _ := tw.read(t, false, req); fast != serial {
			t.Fatalf("read %+v of a %d-byte file: fast path %d %q (%d bytes), worker %d %q (%d bytes)",
				req, size, fast.status, fast.err, len(fast.data), serial.status, serial.err, len(serial.data))
		}
	})
}

// raceEnabled is set under -race (race_test.go).
var raceEnabled bool

// TestFastReadAllocs pins the fast read's heap cost: a warm one-page read
// allocates nothing; its side effects go into the shard's accumulator. Each
// read is measured alone, with the drain of the one before it outside
// the window, on one P so nothing else runs inside it.
func TestFastReadAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are meaningless under the race detector")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	svc, sess := testReadService(t)
	sh := svc.shards[0]
	name, dst := fullName("acme", "hot.dat"), make([]byte, 4096)
	const runs = 100
	var ms runtime.MemStats
	var allocs uint64
	for i := -1; i < runs; i++ { // run -1 warms the pools
		if err := sh.DoSide(context.Background(), func() {}); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&ms)
		before := ms.Mallocs
		_, ok := sh.tryFast(sess, fsproto.TraceContext{}, fsproto.KindRead, name, sess.pass, func(sr *kernel.SnapshotReader) (int, error) {
			return sr.ReadAt(dst, 4096)
		})
		runtime.ReadMemStats(&ms)
		if !ok {
			t.Fatalf("read %d fell back to the worker", i)
		}
		if i >= 0 {
			allocs += ms.Mallocs - before
		}
	}
	if per := float64(allocs) / runs; per > 0 {
		t.Fatalf("fast read: %.2f allocs/op, want 0", per)
	}
}

// TestStatOps covers the stat operation end to end: fast-path values and
// the live error shape for a missing file (TestFastReadGating's serial-reads
// row checks the values of the side work's stat).
func TestStatOps(t *testing.T) {
	t.Run("fast", func(t *testing.T) {
		svc, sess := testReadService(t)
		resp, err := svc.Stat(context.Background(), sess, fsproto.StatRequest{Name: "hot.dat"})
		if err != nil {
			t.Fatal(err)
		}
		want := fsproto.StatResponse{Name: "acme/hot.dat", Size: 4 * 4096, Perm: 0600, Encrypted: true, Pages: 4}
		if resp != want {
			t.Fatalf("stat = %+v, want %+v", resp, want)
		}
		if svc.MetricsSnapshot().Counters["server.fast_reads_total"] == 0 {
			t.Fatal("stat did not take the fast path")
		}
	})
	t.Run("missing", func(t *testing.T) {
		svc, sess := testReadService(t)
		_, err := svc.Stat(context.Background(), sess, fsproto.StatRequest{Name: "nope.dat"})
		if !errors.Is(err, fs.ErrNotExist) {
			t.Fatalf("want ErrNotExist, got %v", err)
		}
	})
}

// TestBusyErrorShape pins the 429 error contract: BusyError unwraps to
// ErrBusy (HTTP mapping and IsCode checks keep working) and renders the
// exact pre-hint message text.
func TestBusyErrorShape(t *testing.T) {
	e := &BusyError{Tenant: 5, Depth: 17}
	if !errors.Is(e, ErrBusy) {
		t.Fatal("BusyError does not unwrap to ErrBusy")
	}
	want := fmt.Sprintf("%s (tenant %d)", ErrBusy, 5)
	if e.Error() != want {
		t.Fatalf("Error() = %q, want %q", e.Error(), want)
	}
}

// TestBusyQueueDepthHeader: the error answer exports a BusyError's queue
// depth on the 429 response, and carries no hint for plain ErrBusy.
func TestBusyQueueDepthHeader(t *testing.T) {
	svc := New(Options{
		Shards: 1,
		MCMode: memctrl.Mode{MemEncryption: true, FileEncryption: true},
		Access: kernel.ModeDAX,
	})
	t.Cleanup(svc.Close)

	resp := svc.errorResponse(&BusyError{Tenant: 3, Depth: 42})
	if resp.Status != http.StatusTooManyRequests || resp.QueueDepth != 42 {
		t.Fatalf("status %d queue depth %d, want 429 and 42", resp.Status, resp.QueueDepth)
	}
	if resp = svc.errorResponse(ErrBusy); resp.QueueDepth != -1 {
		t.Fatalf("bare ErrBusy must carry no hint, got %d", resp.QueueDepth)
	}
}

// TestReadScalingGuard is the read-concurrency acceptance gate: on a host
// with >= 4 cores, 8 concurrent readers on one shard must sustain at least
// 2x the single-reader throughput. Runs only under FSENCR_OVERHEAD_GUARD=1
// (make overhead-guard) — wall-clock throughput ratios are meaningless on
// loaded CI executors.
func TestReadScalingGuard(t *testing.T) {
	if os.Getenv("FSENCR_OVERHEAD_GUARD") == "" {
		t.Skip("set FSENCR_OVERHEAD_GUARD=1 to run throughput guards")
	}
	if runtime.NumCPU() < 4 {
		t.Skipf("need >= 4 cores for a meaningful scaling ratio, have %d", runtime.NumCPU())
	}
	svc, sess := testReadService(t)
	ctx := context.Background()

	read := func() {
		pl, err := svc.Read(ctx, sess, fsproto.ReadRequest{Name: "hot.dat", Offset: 0, Length: 4 * 4096})
		if err != nil {
			t.Error(err)
		}
		pl.Release()
	}
	throughput := func(goroutines, opsEach int) float64 {
		var wg sync.WaitGroup
		start := time.Now()
		for g := 0; g < goroutines; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < opsEach; i++ {
					read()
				}
			}()
		}
		wg.Wait()
		return float64(goroutines*opsEach) / time.Since(start).Seconds()
	}

	// Warm up: fault pages, fill pools, install the OTT entry.
	for i := 0; i < 16; i++ {
		read()
	}
	const opsEach = 400
	// Best-of-3 on both sides discards scheduler noise.
	var single, eight float64
	for i := 0; i < 3; i++ {
		if v := throughput(1, opsEach); v > single {
			single = v
		}
		if v := throughput(8, opsEach); v > eight {
			eight = v
		}
	}
	t.Logf("single-reader %.0f ops/s, 8-reader %.0f ops/s (%.2fx)", single, eight, eight/single)
	if eight < 2*single {
		t.Fatalf("8-reader throughput %.0f ops/s < 2x single-reader %.0f ops/s", eight, single)
	}
}

// BenchmarkServerParallelRead measures the concurrent read fast-path: all
// procs reading one shard's encrypted file through the full service path
// (payload pool, read lock, snapshot decrypt, deferred deltas).
func BenchmarkServerParallelRead(b *testing.B) {
	svc, sess := testReadService(b)
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			pl, err := svc.Read(ctx, sess, fsproto.ReadRequest{Name: "hot.dat", Offset: 0, Length: 4096})
			if err != nil {
				b.Fatal(err)
			}
			pl.Release()
		}
	})
}
