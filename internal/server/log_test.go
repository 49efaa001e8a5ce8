package server

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand/v2"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"fsencr/internal/fsclient"
	"fsencr/internal/fsproto"
	"fsencr/internal/kernel"
	"fsencr/internal/memctrl"
)

// TestLogStore puts 10 000 seeded records through a shard's log store: the
// encoded log from any position — every chunk boundary ±1, each session's
// first use — decodes (by a reader that read the log up to there) to the
// records appended; reading it shares the chunks instead of copying them;
// and a 256-byte read or write sent by the product client costs the
// pinned number of log bytes, as the footprint gauges on /metrics report.
func TestLogStore(t *testing.T) {
	t.Run("positions", func(t *testing.T) {
		l, ref, firstUse := seededLog(10000)
		if len(l.chunks) < 8 {
			t.Fatalf("%d chunks: the seeded log must span several", len(l.chunks))
		}
		all := bytes.Join(l.from(0), nil)
		if uint64(len(all)) != l.bytes.Load() || l.recs.Load() != uint64(len(ref)) {
			t.Fatalf("store counts %d bytes / %d records, holds %d / %d", l.bytes.Load(), l.recs.Load(), len(all), len(ref))
		}
		at := map[uint64]bool{0: true, uint64(len(ref)) - 1: true, uint64(len(ref)): true}
		for _, c := range l.chunks[1:] {
			at[c.first-1], at[c.first], at[c.first+1] = true, true, true
		}
		for _, k := range firstUse {
			at[k] = true
		}
		for k := range at {
			var rd fsproto.LogReader
			prefix := all
			for i := uint64(0); i < k; i++ {
				var rec fsproto.LogRecord
				var err error
				if prefix, err = rd.Next(prefix, &rec); err != nil {
					t.Fatalf("prefix record %d: %v", i, err)
				}
			}
			tail := bytes.Join(l.from(k), nil)
			if !bytes.Equal(tail, prefix) {
				t.Fatalf("from(%d) is not the log's suffix at record %d", k, k)
			}
			for i := k; len(tail) > 0; i++ {
				var rec fsproto.LogRecord
				var err error
				if tail, err = rd.Next(tail, &rec); err != nil {
					t.Fatalf("from(%d): record %d: %v", k, i, err)
				}
				if !reflect.DeepEqual(rec, ref[i]) {
					t.Fatalf("from(%d): record %d (%v) decodes differently from the one appended", k, i, ref[i].Kind)
				}
			}
			if rd.Records() != uint64(len(ref)) {
				t.Fatalf("from(%d) ends at record %d, the log at %d", k, rd.Records(), len(ref))
			}
		}
	})

	t.Run("reads share chunks", func(t *testing.T) {
		l, _, _ := seededLog(10000)
		var segs [][]byte
		if n := testing.AllocsPerRun(20, func() { segs = l.from(0) }); n > 1 {
			t.Fatalf("from(0) makes %.0f allocations: it copies the chunks", n)
		}
		for i, c := range l.chunks {
			if &segs[i][0] != &c.b[0] || len(segs[i]) != len(c.b) || cap(segs[i]) != len(c.b) {
				t.Fatalf("segment %d is not chunk %d's bytes, capped at their length", i, i)
			}
		}
	})

	t.Run("256-byte ops over the wire", func(t *testing.T) {
		svc := New(Options{Shards: 1, MCMode: memctrl.Mode{MemEncryption: true, FileEncryption: true},
			Access: kernel.ModeDAX, AdmissionLog: true})
		defer svc.Close()
		hs := httptest.NewServer(svc.Mux())
		defer hs.Close()
		cl := fsclient.Dial(hs.URL)
		defer cl.Close()
		if err := cl.Login("acme", 1, "bench-pass-0"); err != nil {
			t.Fatal(err)
		}
		if err := cl.Create(fsproto.CreateRequest{Name: "obj0", Perm: 0600, Size: 1 << 20, Encrypted: true}); err != nil {
			t.Fatal(err)
		}
		const off = 1<<20 - 4096
		cost := func(op func() error) uint64 {
			t.Helper()
			before := svc.MetricsSnapshot().Gauges["server.log_bytes"]
			if err := op(); err != nil {
				t.Fatal(err)
			}
			return svc.MetricsSnapshot().Gauges["server.log_bytes"] - before
		}
		write := cost(func() error {
			return cl.Write(fsproto.WriteRequest{Name: "obj0", Offset: off, Data: bytes.Repeat([]byte{7}, 256)})
		})
		read := cost(func() error {
			// A side task opens and closes a bracket of its own, so the read
			// finds the read lock free.
			if err := svc.Shards()[0].DoSide(context.Background(), func() {}); err != nil {
				return err
			}
			_, err := cl.Read(fsproto.ReadRequest{Name: "obj0", Offset: off, Length: 256})
			return err
		})
		t.Logf("a 256-byte read costs %d log bytes, a write %d", read, write)
		if read != 0 || write > 340 {
			t.Fatalf("a 256-byte read costs %d log bytes (pinned 0: it is served off the worker), a write %d (pinned <= 340)", read, write)
		}
		n, err := svc.LogLen(context.Background(), 0) // a side task: it drains the read
		if err != nil || n > 4 {
			t.Fatalf("log holds %d records (%v), want login, create, write and at most the read's deltas", n, err)
		}
		resp, err := http.Get(hs.URL + "/metrics")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		gauges := map[string]string{}
		for sc := bufio.NewScanner(resp.Body); sc.Scan(); {
			if name, v, ok := strings.Cut(sc.Text(), " "); ok && strings.HasPrefix(name, "fsencr_server_log_") {
				gauges[name] = v
			}
		}
		var segs [][]byte
		if err := svc.Shards()[0].DoSide(context.Background(), func() { segs = svc.Shards()[0].log.from(0) }); err != nil {
			t.Fatal(err)
		}
		want := map[string]string{
			"fsencr_server_log_records": strconv.FormatUint(n, 10),
			"fsencr_server_log_bytes":   strconv.Itoa(len(bytes.Join(segs, nil))),
		}
		if !reflect.DeepEqual(gauges, want) {
			t.Fatalf("/metrics log gauges %v, want %v", gauges, want)
		}
	})
}

// seededLog appends n seeded records to a fresh store — ops by a growing set
// of sessions with requests of a few bytes up to one bigger than a chunk,
// traced and untraced, flushes and checkpoints — and returns it with the
// records as a reader decodes them and the position of each session's first
// use.
func seededLog(n int) (*logStore, []fsproto.LogRecord, []uint64) {
	rng := rand.New(rand.NewPCG(7, 28))
	l := new(logStore)
	var sessions []fsproto.LogRecord
	var ref []fsproto.LogRecord
	var firstUse []uint64
	for i := 0; i < n; i++ {
		var rec fsproto.LogRecord
		switch r := rng.IntN(100); {
		case r == 0:
			rec.Kind = fsproto.RecFlush
		case r == 1:
			rec.Kind = fsproto.RecCheckpoint
			for j := range rec.Root {
				rec.Root[j] = byte(rng.Uint32())
			}
		default:
			rec.Kind = fsproto.Kind(rng.IntN(fsproto.NumOps))
			s := rng.IntN(len(sessions) + 1)
			if s == len(sessions) && (s > 0 && rng.IntN(200) > 0) {
				s = rng.IntN(s)
			}
			if s == len(sessions) {
				firstUse = append(firstUse, uint64(i))
				sessions = append(sessions, fsproto.LogRecord{Token: fmt.Sprintf("n1-%d", s+1),
					Tenant: fmt.Sprintf("tenant%d", s), EUID: uint32(s) | 1<<30, Pass: strings.Repeat("p", s)})
			}
			cred := sessions[s]
			rec.Session, rec.Token, rec.Tenant, rec.EUID, rec.Pass = uint32(s), cred.Token, cred.Tenant, cred.EUID, cred.Pass
			rec.Wait, rec.GID = uint64(rng.IntN(3))*uint64(i), uint32(rng.IntN(1<<18))
			if rng.IntN(3) == 0 {
				rec.TraceID, rec.Parent, rec.Sampled = rng.Uint64()|1, uint64(rng.IntN(1000)), rng.IntN(2) == 0
			}
			size := 20 + rng.IntN(60)
			switch {
			case i == n/2:
				size = 3 * logChunkBytes
			case rng.IntN(50) == 0:
				size = 4096
			case rng.IntN(20) == 0:
				size = 0
			}
			if size > 0 {
				rec.Req = make([]byte, size)
				for j := range rec.Req {
					rec.Req[j] = byte(rng.Uint32())
				}
			}
			rec.Framed = rng.IntN(4) == 0
		}
		l.append(&rec)
		ref = append(ref, rec)
	}
	return l, ref, firstUse
}

// TestTokenIntroducedOnce: a log numbers a token's session once. A second
// Session object for the same token — a peer session registered again after
// its first was dropped — acts under the index the token's login took, and
// the log stays one a reader accepts; in another log the session starts over.
func TestTokenIntroducedOnce(t *testing.T) {
	svc := New(Options{Shards: 1, MCMode: memctrl.Mode{MemEncryption: true, FileEncryption: true},
		Access: kernel.ModeDAX, AdmissionLog: true})
	defer svc.Close()
	ctx := context.Background()
	other, err := svc.Login(ctx, "globex", 1, "pw-g", 0)
	if err != nil {
		t.Fatal(err)
	}
	sess, err := svc.Login(ctx, "acme", 1, "pw", 0)
	if err != nil {
		t.Fatal(err)
	}
	again := newSession(sess.token, sess.tenant, sess.uid, sess.pass)
	if err := svc.Create(ctx, again, fsproto.CreateRequest{Name: "f", Perm: 0600, Size: 4096}); err != nil {
		t.Fatal(err)
	}
	segs, err := svc.RecordsFrom(ctx, 0, 0)
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
	if len(recs) != 3 || recs[0].Token != other.token || recs[1].Token != sess.token || recs[2].Session != recs[1].Session || recs[2].Token != sess.token {
		t.Fatalf("log %+v: the create is not under the login's session", recs)
	}
	// Another shard of the index keeps another log, whose writer has not seen
	// the token: it is introduced there afresh, whatever index it has here.
	rep := svc.NewReplicaShard(0)
	rep.logOp(&task{kind: fsproto.KindRead, sess: sess, body: []byte(`{}`)}, 0)
	var rec fsproto.LogRecord
	if _, err := new(fsproto.LogReader).Next(bytes.Join(rep.log.from(0), nil), &rec); err != nil || rec.Session != 0 || rec.Token != sess.token {
		t.Fatalf("the session's first record in a new log: %+v, %v", rec, err)
	}
}

// TestEveryExecutedOpLogged: on a logged shard every op a bracket executes
// — each of the ten kinds, succeeding and failing — is followed by exactly
// one record of its kind, an op refused before admission by none. A read or
// get served under the read lock is no record: the drain that follows it logs its
// side effects, its sampled trace among them, as one read_deltas record. The
// log's length is the executed ops plus those and the flush and checkpoint
// records.
func TestEveryExecutedOpLogged(t *testing.T) {
	svc := New(Options{Shards: 1, MCMode: memctrl.Mode{MemEncryption: true, FileEncryption: true},
		Access: kernel.ModeDAX, AdmissionLog: true, CheckpointEvery: 4})
	defer svc.Close()
	ctx := context.Background()
	traced := WithTrace(ctx, fsproto.TraceContext{TraceID: 0x7e57, Sampled: true})
	var sess *Session
	val := bytes.Repeat([]byte{5}, 64)
	steps := []struct {
		kind fsproto.Kind
		fail bool
		run  func() error
	}{
		{fsproto.KindLogin, false, func() (err error) { sess, err = svc.Login(ctx, "acme", 1, "pw", 0); return }},
		{fsproto.KindLogin, true, func() error { _, err := svc.Login(ctx, "acme", 1, "guessed", 0); return err }},
		{fsproto.KindCreate, false, func() error {
			return svc.Create(ctx, sess, fsproto.CreateRequest{Name: "f", Perm: 0600, Size: 8192, Encrypted: true})
		}},
		{fsproto.KindCreate, true, func() error {
			return svc.Create(ctx, sess, fsproto.CreateRequest{Name: "f", Perm: 0600, Size: 8192, Encrypted: true})
		}},
		{fsproto.KindWrite, false, func() error { return svc.Write(ctx, sess, fsproto.WriteRequest{Name: "f", Data: val}) }},
		{fsproto.KindWrite, true, func() error {
			return svc.Write(ctx, sess, fsproto.WriteRequest{Name: "f", Offset: 8190, Data: val})
		}},
		{fsproto.KindRead, false, func() error {
			pl, err := svc.Read(traced, sess, fsproto.ReadRequest{Name: "f", Length: 64})
			pl.Release()
			return err
		}},
		{fsproto.KindRead, true, func() error {
			_, err := svc.Read(ctx, sess, fsproto.ReadRequest{Name: "f", Offset: 1 << 40, Length: 64})
			return err
		}},
		{fsproto.KindChmod, false, func() error { return svc.Chmod(ctx, sess, fsproto.ChmodRequest{Name: "f", Perm: 0640}) }},
		{fsproto.KindChmod, true, func() error { return svc.Chmod(ctx, sess, fsproto.ChmodRequest{Name: "nope", Perm: 0640}) }},
		{fsproto.KindKVCreate, false, func() error {
			return svc.KVCreate(ctx, sess, fsproto.KVCreateRequest{Store: "kv", Size: 16 * 4096})
		}},
		{fsproto.KindKVCreate, true, func() error {
			return svc.KVCreate(ctx, sess, fsproto.KVCreateRequest{Store: "kv", Size: 16 * 4096})
		}},
		{fsproto.KindKVPut, false, func() error { return svc.KVPut(ctx, sess, fsproto.KVPutRequest{Store: "kv", Key: 1, Value: val}) }},
		{fsproto.KindKVPut, true, func() error { return svc.KVPut(ctx, sess, fsproto.KVPutRequest{Store: "nope", Key: 1, Value: val}) }},
		{fsproto.KindKVGet, false, func() error {
			pl, err := svc.KVGet(traced, sess, fsproto.KVGetRequest{Store: "kv", Key: 1})
			pl.Release()
			return err
		}},
		{fsproto.KindKVGet, true, func() error {
			_, err := svc.KVGet(ctx, sess, fsproto.KVGetRequest{Store: "kv", Key: 2})
			return err
		}},
		{fsproto.KindKVDelete, false, func() error {
			_, err := svc.KVDelete(ctx, sess, fsproto.KVDeleteRequest{Store: "kv", Key: 1})
			return err
		}},
		{fsproto.KindKVDelete, true, func() error {
			_, err := svc.KVDelete(ctx, sess, fsproto.KVDeleteRequest{Store: "nope", Key: 1})
			return err
		}},
		{fsproto.KindDelete, false, func() error { return svc.Delete(ctx, sess, fsproto.DeleteRequest{Name: "f"}) }},
		{fsproto.KindDelete, true, func() error { return svc.Delete(ctx, sess, fsproto.DeleteRequest{Name: "f"}) }},
	}
	var rd fsproto.LogReader
	// newRecords decodes what the log gained since the reader's position.
	newRecords := func() []fsproto.LogRecord {
		t.Helper()
		segs, err := svc.RecordsFrom(ctx, 0, rd.Records())
		if err != nil {
			t.Fatal(err)
		}
		var out []fsproto.LogRecord
		for b := bytes.Join(segs, nil); len(b) > 0; {
			var rec fsproto.LogRecord
			if b, err = rd.Next(b, &rec); err != nil {
				t.Fatal(err)
			}
			out = append(out, rec)
		}
		return out
	}
	executed, internal := 0, 0
	for i, st := range steps {
		fast0 := svc.cFastReads.Value()
		if err := st.run(); (err != nil) != st.fail {
			t.Fatalf("step %d (%v): err %v, want failure %v", i, st.kind, err, st.fail)
		}
		recs := newRecords() // a side task: it drains what the step left
		if fast := svc.cFastReads.Value() != fast0; fast != (!st.fail && (st.kind == fsproto.KindRead || st.kind == fsproto.KindKVGet)) {
			t.Fatalf("step %d (%v, failing %v): served off the worker %v", i, st.kind, st.fail, fast)
		} else if fast {
			if len(recs) != 1 || recs[0].Kind != fsproto.RecReadDeltas || len(recs[0].Traces) != 1 || recs[0].Traces[0] != (fsproto.ReadTrace{TraceID: 0x7e57, Kind: st.kind}) {
				t.Fatalf("step %d (%v) served off the worker left records %+v, want one read_deltas record carrying its trace", i, st.kind, recs)
			}
			internal++
			continue
		}
		executed++
		if len(recs) == 0 || recs[0].Kind != st.kind {
			t.Fatalf("step %d (%v, failing %v) left records %+v, want one of its kind", i, st.kind, st.fail, recs)
		}
		for _, rec := range recs[1:] {
			if rec.Kind != fsproto.RecCheckpoint || executed%4 != 0 {
				t.Fatalf("step %d (%v): a %v record follows the op's, after %d ops", i, st.kind, rec.Kind, executed)
			}
			internal++
		}
	}
	// Refused before admission: validation never reaches the machine.
	if _, err := svc.Read(ctx, sess, fsproto.ReadRequest{Name: "f", Length: -1}); !errors.Is(err, ErrBadRequest) {
		t.Fatalf("negative-length read: %v", err)
	}
	if recs := newRecords(); len(recs) != 0 {
		t.Fatalf("an op refused before admission left records %+v", recs)
	}
	mig, err := svc.FreezeShard(ctx, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer mig.Resume()
	internal += len(newRecords())
	n, err := svc.LogLen(ctx, 0)
	if err != nil {
		t.Fatal(err)
	}
	if want := uint64(executed + internal); n != want || internal != executed/4+2+2 {
		t.Fatalf("log holds %d records, want %d executed ops + %d read_deltas, flush and checkpoint records (%d)", n, executed, internal, want)
	}
}
