package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"fsencr/internal/addr"
	"fsencr/internal/config"
	"fsencr/internal/fsproto"
	"fsencr/internal/kernel"
	"fsencr/internal/memctrl"
	"fsencr/internal/obsplane/journal"
)

// tenantOnShard finds a tenant name hashing onto the wanted global shard.
func tenantOnShard(t *testing.T, want, nShards int, taken map[string]bool) string {
	t.Helper()
	names := []string{"acme", "globex", "initech", "umbrella", "wayne", "stark", "hooli", "soylent", "tyrell", "wonka"}
	for _, n := range names {
		if taken[n] {
			continue
		}
		if fsproto.ShardIndex(fsproto.TenantGID(n), nShards) == want {
			taken[n] = true
			return n
		}
	}
	t.Fatalf("no test tenant hashes onto shard %d/%d", want, nShards)
	return ""
}

// clusterTestOptions is the two-shard logging configuration the replay
// tests run under.
func clusterTestOptions() Options {
	return Options{
		Shards:          2,
		MCMode:          memctrl.Mode{MemEncryption: true, FileEncryption: true},
		Access:          kernel.ModeDAX,
		AdmissionLog:    true,
		ChipSeqBase:     DefaultChipSeqBase,
		CheckpointEvery: 4,
	}
}

// runReplayWorkload drives a workload covering every op kind of the table
// against svc — each tenant on its own shard: every kind succeeding, every
// kind failing in its bracket (so the failure is itself a log record), a
// third of the ops carrying a sampled trace context — and returns the
// sessions by tenant.
func runReplayWorkload(t *testing.T, svc *Service, tA, tB string) map[string]*Session {
	t.Helper()
	steps := 0
	// next returns the context of the next op: every third one is traced.
	next := func() context.Context {
		steps++
		if steps%3 != 0 {
			return context.Background()
		}
		return WithTrace(context.Background(), fsproto.TraceContext{TraceID: 0x7e57_0000 + uint64(steps), Parent: uint64(steps), Sampled: true})
	}
	ok := func(what string, err error) {
		t.Helper()
		if err != nil {
			t.Fatalf("%s: %v", what, err)
		}
	}
	fails := func(what string, err error) {
		t.Helper()
		if err == nil {
			t.Fatalf("%s must fail", what)
		}
	}
	sess := make(map[string]*Session)
	for _, tn := range []string{tA, tB} {
		s, err := svc.Login(next(), tn, 1, "pw-"+tn, 0)
		ok("login "+tn, err)
		sess[tn] = s
		_, err = svc.Login(next(), tn, 1, "guessed", 0)
		fails("login "+tn+" with the wrong passphrase", err)
	}
	for _, tn := range []string{tA, tB} {
		s := sess[tn]
		create := fsproto.CreateRequest{Name: "data.bin", Perm: 0600, Size: 2 * 4096, Encrypted: true}
		ok("create "+tn, svc.Create(next(), s, create))
		fails("create "+tn+" of an existing file", svc.Create(next(), s, create))
		payload := bytes.Repeat([]byte{byte(len(tn))}, 4096)
		ok("write "+tn, svc.Write(next(), s, fsproto.WriteRequest{Name: "data.bin", Data: payload}))
		ok("chmod "+tn, svc.Chmod(next(), s, fsproto.ChmodRequest{Name: "data.bin", Perm: 0640}))
		pl, err := svc.Read(next(), s, fsproto.ReadRequest{Name: "data.bin", Length: 4096})
		ok("read "+tn, err)
		pl.Release()
		_, err = svc.Read(next(), s, fsproto.ReadRequest{Name: "data.bin", Offset: 1 << 40, Length: 64})
		fails("read "+tn+" beyond EOF", err)
		ok("create tmp "+tn, svc.Create(next(), s, fsproto.CreateRequest{Name: "tmp.bin", Perm: 0600, Size: 4096, Encrypted: true}))
		ok("delete "+tn, svc.Delete(next(), s, fsproto.DeleteRequest{Name: "tmp.bin"}))
		fails("delete "+tn+" of a missing file", svc.Delete(next(), s, fsproto.DeleteRequest{Name: "tmp.bin"}))

		kvCreate := fsproto.KVCreateRequest{Store: "kv", Size: 16 * 4096}
		ok("kv create "+tn, svc.KVCreate(next(), s, kvCreate))
		fails("kv create "+tn+" of an existing store", svc.KVCreate(next(), s, kvCreate))
		for i := 0; i < 6; i++ {
			ok("kv put "+tn, svc.KVPut(next(), s, fsproto.KVPutRequest{
				Store: "kv", Key: uint64(i), Value: bytes.Repeat([]byte{byte(i)}, 64),
			}))
		}
		fails("kv put "+tn+" into a missing store", svc.KVPut(next(), s, fsproto.KVPutRequest{Store: "nope", Key: 1, Value: []byte{1}}))
		pl, err = svc.KVGet(next(), s, fsproto.KVGetRequest{Store: "kv", Key: 3})
		ok("kv get "+tn, err)
		if !bytes.Equal(pl.Data, bytes.Repeat([]byte{3}, 64)) {
			t.Fatalf("kv get %s returned %x", tn, pl.Data)
		}
		pl.Release()
		_, err = svc.KVGet(next(), s, fsproto.KVGetRequest{Store: "kv", Key: 99})
		fails("kv get "+tn+" of a missing key", err)
		existed, err := svc.KVDelete(next(), s, fsproto.KVDeleteRequest{Store: "kv", Key: 3})
		ok("kv delete "+tn, err)
		if !existed {
			t.Fatalf("kv delete %s: key 3 did not exist", tn)
		}
		_, err = svc.KVDelete(next(), s, fsproto.KVDeleteRequest{Store: "nope", Key: 3})
		fails("kv delete "+tn+" in a missing store", err)
	}
	// Cross-tenant denials: tA probing tB's file lands (and is journaled) on
	// tB's shard, in admission order, under a shadow session replay must
	// rebuild from the records' credentials.
	fails("cross-tenant write with the wrong passphrase", svc.Write(next(), sess[tA], fsproto.WriteRequest{
		Name: "data.bin", Tenant: tB, Data: []byte{1}, Passphrase: "wrong",
	}))
	fails("cross-tenant chmod", svc.Chmod(next(), sess[tA], fsproto.ChmodRequest{Name: "data.bin", Tenant: tB, Perm: 0666}))
	return sess
}

// decodeLog decodes an encoded admission log from position 0.
func decodeLog(t *testing.T, b []byte) []fsproto.LogRecord {
	t.Helper()
	var rd fsproto.LogReader
	var out []fsproto.LogRecord
	for len(b) > 0 {
		var rec fsproto.LogRecord
		var err error
		if b, err = rd.Next(b, &rec); err != nil {
			t.Fatalf("decode log: %v", err)
		}
		out = append(out, rec)
	}
	return out
}

// encodeLog encodes records as a log from position 0.
func encodeLog(recs []fsproto.LogRecord) []byte {
	var w fsproto.LogWriter
	var out []byte
	for i := range recs {
		out = w.Append(out, &recs[i])
	}
	return out
}

// snapshotJSON is the shard's whole deterministic snapshot, spans included.
func snapshotJSON(t *testing.T, sh *Shard) []byte {
	t.Helper()
	b, err := json.Marshal(sh.Snapshot())
	if err != nil {
		t.Fatalf("snapshot export: %v", err)
	}
	return b
}

func promBytes(t *testing.T, sh *Shard) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := sh.Snapshot().WritePrometheus(&buf); err != nil {
		t.Fatalf("prometheus export: %v", err)
	}
	return buf.Bytes()
}

// frozenLog freezes shard idx of svc for migration and returns the
// migration with the shard's whole log, taken under the hold as a replica's
// last pull would.
func frozenLog(t *testing.T, svc *Service, idx int) (*Migration, []byte) {
	t.Helper()
	ctx := context.Background()
	mig, err := svc.FreezeShard(ctx, idx)
	if err != nil {
		t.Fatalf("freeze: %v", err)
	}
	segs, err := svc.RecordsFrom(ctx, idx, 0)
	if err != nil {
		t.Fatalf("frozen log: %v", err)
	}
	return mig, bytes.Join(segs, nil)
}

// emptyNode is a second node of the test cluster that owns no shard yet.
func emptyNode() *Service {
	opts := clusterTestOptions()
	opts.OwnedShards = []int{}
	opts.TokenPrefix = "b"
	return New(opts)
}

// TestReplayRebuildsShard freezes a logged shard and rebuilds
// it on a second (empty) node the way a migration does: a replica shard
// replays the log — in two pulls, the first short of the freeze — and is
// promoted at the freeze point. The promoted shard must pass the gates,
// serve the migrated sessions where the source stopped, and emit a
// byte-identical /shards.prom section, JSON snapshot (spans of the traced
// ops included) and journal. The workload must put every kind of the op
// table into the log, so an op added without replay coverage fails here.
func TestReplayRebuildsShard(t *testing.T) {
	svcA := New(clusterTestOptions())
	defer svcA.Close()
	taken := map[string]bool{}
	tA := tenantOnShard(t, 0, 2, taken)
	tB := tenantOnShard(t, 1, 2, taken)
	sess := runReplayWorkload(t, svcA, tA, tB)

	// Freeze shard 1 (tB's home).
	mig, log := frozenLog(t, svcA, 1)
	recs := decodeLog(t, log)
	if uint64(len(recs)) != mig.At.Len || recs[len(recs)-1].Kind != fsproto.RecCheckpoint {
		t.Fatalf("frozen log holds %d records ending in %v, the freeze reported %d", len(recs), recs[len(recs)-1].Kind, mig.At.Len)
	}
	logged := map[fsproto.Kind]bool{}
	for _, rec := range recs {
		logged[rec.Kind] = true
	}
	for _, o := range ops {
		if !logged[o.kind] {
			t.Errorf("op %v never reached the replayed log: extend runReplayWorkload", o.kind)
		}
	}
	shA := svcA.Shards()[1]
	srcProm, srcSnap, srcJrn := promBytes(t, shA), snapshotJSON(t, shA), shA.Jrn.Events()
	if len(shA.Snapshot().Spans) == 0 {
		t.Fatal("source snapshot holds no spans: the traced lifecycle went unexercised")
	}

	svcB := emptyNode()
	defer svcB.Close()
	// A forged length in a shipped read record meets the validation the live
	// path runs: the replay is refused before anything is allocated.
	forged := append([]fsproto.LogRecord(nil), recs...)
	for i := range forged {
		if forged[i].Kind == fsproto.KindRead {
			forged[i].Req = []byte(`{"name":"data.bin","length":1099511627776}`)
			break
		}
	}
	if _, err := svcB.ReplayLog(svcB.NewReplicaShard(1), new(fsproto.LogReader), encodeLog(forged)); !errors.Is(err, ErrBadRequest) {
		t.Fatalf("replay of a log with a forged read length: got %v, want ErrBadRequest", err)
	}
	// So is a logged queue wait longer than the shard had run at its record.
	forged = slices.Clone(recs)
	forged[slices.IndexFunc(forged, func(rec fsproto.LogRecord) bool { return rec.Kind == fsproto.KindWrite })].Wait = 1 << 62
	if _, err := svcB.ReplayLog(svcB.NewReplicaShard(1), new(fsproto.LogReader), encodeLog(forged)); !errors.Is(err, ErrBadRequest) {
		t.Fatalf("replay of a log with a wait beyond the clock: got %v, want ErrBadRequest", err)
	}

	// The replica catches up short of the freeze's flush and checkpoint, and
	// may not be promoted there.
	shB := svcB.NewReplicaShard(1)
	var rd fsproto.LogReader
	head := encodeLog(recs[:len(recs)-2])
	if !bytes.HasPrefix(log, head) {
		t.Fatal("re-encoded records differ from the log's bytes")
	}
	if _, err := svcB.ReplayLog(shB, &rd, head); err != nil {
		t.Fatalf("replay up to the freeze: %v", err)
	}
	if err := svcB.PromoteShard(shB, &mig.At); err == nil {
		t.Fatal("a replica short of the frozen log was promoted")
	}
	if n, err := svcB.ReplayLog(shB, &rd, log[len(head):]); err != nil || n != 2 {
		t.Fatalf("replay of the freeze: %d records, %v", n, err)
	}
	if err := svcB.PromoteShard(shB, &mig.At); err != nil {
		t.Fatalf("promote: %v", err)
	}
	if got := svcB.Shards(); len(got) != 1 || got[0] != shB || shB.ID() != 1 {
		t.Fatalf("node B owns %v, want the promoted shard 1", got)
	}
	if got := promBytes(t, shB); !bytes.Equal(got, srcProm) {
		t.Fatalf("replayed shard snapshot differs from source:\n--- source ---\n%s\n--- replayed ---\n%s", srcProm, got)
	}
	if got := snapshotJSON(t, shB); !bytes.Equal(got, srcSnap) {
		t.Fatalf("replayed shard JSON snapshot (spans included) differs from source:\n--- source ---\n%s\n--- replayed ---\n%s", srcSnap, got)
	}
	jrn := shB.Jrn.Events()
	last := jrn[len(jrn)-1]
	if !slices.Equal(jrn[:len(jrn)-1], srcJrn) {
		t.Fatalf("replayed journal differs from source:\n--- source ---\n%+v\n--- replayed ---\n%+v", srcJrn, jrn)
	}
	if want := fmt.Sprintf("shard 1 rehydrated from %d records", mig.At.Len); last.Type != journal.ShardMigrated || last.Detail != want {
		t.Fatalf("promotion journaled %+v, want %s %q", last, journal.ShardMigrated, want)
	}
	mig.Commit(1)
	svcA.SetClusterEpoch(1)

	// The migrated session keeps working on the new node with its old
	// token.
	sB, err := svcB.session(sess[tB].token)
	if err != nil {
		t.Fatalf("migrated session not found on target: %v", err)
	}
	pl, err := svcB.Read(context.Background(), sB, fsproto.ReadRequest{Name: "data.bin", Length: 4096})
	if err != nil {
		t.Fatalf("post-migration read: %v", err)
	}
	defer pl.Release()
	want := bytes.Repeat([]byte{byte(len(tB))}, 4096)
	if !bytes.Equal(pl.Data, want) {
		t.Fatalf("post-migration read returned wrong bytes")
	}

	// The source answers the migrated token with the routing error.
	if _, err := svcA.session(sess[tB].token); err == nil {
		t.Fatal("source still resolves the migrated session")
	} else if wse, ok := err.(*WrongShardError); !ok || wse.Shard != 1 {
		t.Fatalf("want WrongShardError{Shard:1}, got %v", err)
	}
	// And routes the tenant's shard with the same error.
	if _, err := svcA.shardAt(fsproto.ShardIndex(fsproto.TenantGID(tB), 2)); err == nil {
		t.Fatal("source still owns the migrated shard")
	}
}

// TestReplayDivergenceDetected corrupts one logged write's payload: the
// replica replays it without complaint — the Merkle root covers counters,
// not data — and the promotion's image digest refuses it.
func TestReplayDivergenceDetected(t *testing.T) {
	svcA := New(clusterTestOptions())
	defer svcA.Close()
	taken := map[string]bool{}
	tA := tenantOnShard(t, 0, 2, taken)
	tB := tenantOnShard(t, 1, 2, taken)
	runReplayWorkload(t, svcA, tA, tB)
	mig, log := frozenLog(t, svcA, 1)
	mig.Resume()
	// Flip a byte inside the first logged write's payload, in the log bytes
	// themselves (a decoded record's Req aliases them).
	tampered := false
	for _, rec := range decodeLog(t, log) {
		if _, payload, err := fsproto.SplitFrame(rec.Req); rec.Kind == fsproto.KindWrite && rec.Framed && err == nil && len(payload) > 10 {
			payload[10] ^= 1
			tampered = true
			break
		}
	}
	if !tampered {
		t.Fatal("no framed write record in the log")
	}
	svcB := emptyNode()
	defer svcB.Close()
	sh := svcB.NewReplicaShard(1)
	if _, err := svcB.ReplayLog(sh, new(fsproto.LogReader), log); err != nil {
		t.Fatalf("replay: %v", err)
	}
	if err := svcB.PromoteShard(sh, &mig.At); !errors.Is(err, ErrDiverged) {
		t.Fatalf("promotion of a replica of a tampered log: got %v, want ErrDiverged", err)
	}
	if len(svcB.Shards()) != 0 {
		t.Fatal("a refused replica was adopted")
	}
}

// TestPromotionRefusesTamperedFrames: a replica whose data frames change
// after an exact replay keeps its Merkle root — the tree covers only the
// metadata region — and the image digest is what refuses its promotion.
func TestPromotionRefusesTamperedFrames(t *testing.T) {
	svcA := New(clusterTestOptions())
	defer svcA.Close()
	taken := map[string]bool{}
	runReplayWorkload(t, svcA, tenantOnShard(t, 0, 2, taken), tenantOnShard(t, 1, 2, taken))
	mig, log := frozenLog(t, svcA, 1)
	defer mig.Resume()
	svcB := emptyNode()
	defer svcB.Close()
	sh := svcB.NewReplicaShard(1)
	if _, err := svcB.ReplayLog(sh, new(fsproto.LogReader), log); err != nil {
		t.Fatalf("replay: %v", err)
	}
	mc := sh.Sys.M.MC
	img, err := mc.ExportImage()
	if err != nil || img.Digest() != mig.At.Digest {
		t.Fatalf("an exact replay does not reproduce the source's image (%v)", err)
	}
	root := mc.MerkleRoot()
	pages := make([]uint64, 0, len(img.Frames))
	for p := range img.Frames {
		pages = append(pages, p)
	}
	slices.Sort(pages)
	mc.FlipDataBit(addr.Phys(pages[0]*config.PageSize), 3)
	if mc.MerkleRoot() != root {
		t.Fatal("a data-frame flip moved the Merkle root")
	}
	if err := svcB.PromoteShard(sh, &mig.At); !errors.Is(err, ErrDiverged) {
		t.Fatalf("promotion of a replica with a tampered frame: got %v, want ErrDiverged", err)
	}
	if len(svcB.Shards()) != 0 {
		t.Fatal("a refused replica was adopted")
	}
}

// fastReadSource boots a fair logged one-shard service with
// testReadService's file and runs three readers of 4 KiB pages and 256-byte
// ranges on it — every fifth read traced and sampled, served under the read
// lock or, when it falls back, in a bracket — against a writer, until the fast path has
// served reads while the writes landed. Then it freezes the shard and returns
// the service, the migration, the frozen log and its records, which must
// hold read deltas with audit records and traces among them.
func fastReadSource(t *testing.T) (*Service, *Migration, []byte, []fsproto.LogRecord) {
	t.Helper()
	ctx := context.Background()
	svc, sess := readServiceWith(t, fairLoggedOptions())
	var stop atomic.Bool
	var ids atomic.Uint64
	var wg sync.WaitGroup
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := uint64(r); !stop.Load(); i++ {
				req := fsproto.ReadRequest{Name: "hot.dat", Offset: i % 4 * 4096, Length: 4096}
				if i%2 == 1 {
					req.Offset, req.Length = i%60*256+100, 256
				}
				rctx := ctx
				if i%5 == 0 {
					rctx = WithTrace(ctx, fsproto.TraceContext{TraceID: 0x7e57_0000 + ids.Add(1), Parent: i, Sampled: true})
				}
				pl, err := svc.Read(rctx, sess, req)
				if err != nil {
					t.Errorf("read: %v", err)
					return
				}
				pl.Release()
			}
		}()
	}
	defer func() { stop.Store(true); wg.Wait() }()
	for deadline := time.Now().Add(10 * time.Second); svc.cFastReads.Value() == 0; time.Sleep(100 * time.Microsecond) {
		if time.Now().After(deadline) {
			t.Fatal("fast path never served a read")
		}
	}
	for i := 0; i < 30; i++ {
		if err := svc.Write(ctx, sess, fsproto.WriteRequest{Name: "hot.dat", Offset: uint64(i*1000) % (4*4096 - 256), Data: bytes.Repeat([]byte{byte(i)}, 256)}); err != nil {
			t.Fatal(err)
		}
		time.Sleep(200 * time.Microsecond) // breathe, or every read falls back
	}
	stop.Store(true)
	wg.Wait()
	mig, log := frozenLog(t, svc, 0)
	recs := decodeLog(t, log)
	var deltas, audits, traces, size int
	for i, rec := range recs {
		if rec.Kind == fsproto.RecReadDeltas {
			deltas, audits, traces = deltas+1, audits+len(rec.Delta.Audits), traces+len(rec.Traces)
			size += len(encodeLog(recs[i : i+1]))
		}
	}
	if audits == 0 || traces == 0 {
		t.Fatalf("%d read_deltas records carry %d audit records and %d traces, want some of each", deltas, audits, traces)
	}
	t.Logf("%d records, %d of them read deltas (%d B: %d audit records, %d traces) for %d fast reads",
		len(recs), deltas, size, audits, traces, svc.cFastReads.Value())
	return svc, mig, log, recs
}

// fairLoggedOptions is a fair-mode logging configuration of one shard: its
// reads take the fast path.
func fairLoggedOptions() Options {
	opts := clusterTestOptions()
	opts.Shards = 1
	return opts
}

// TestReplayFastReads: a replica of a fair logged shard whose reads were
// served off the worker — concurrently with writes, pages and sub-page
// ranges, some traced — rebuilds it from the log, in two pulls, and passes
// promotion's gates. The read deltas land at the source's positions and
// clock, so the replica's audit chain ends in the source's head (seq and
// hash), its journal and tail-sampler verdicts equal the source's. A
// read_deltas record short of one audit record is refused at promotion: the
// audit region is in the image Image.Digest proves.
func TestReplayFastReads(t *testing.T) {
	svcA, mig, log, recs := fastReadSource(t)
	defer mig.Resume()
	shA := svcA.Shards()[0]
	verdicts := func(sh *Shard) [2]uint64 {
		c := sh.Snapshot().Counters
		return [2]uint64{c["trace.kept_total"], c["trace.dropped_total"]}
	}
	var srcSeq uint64
	var srcHash [32]byte
	mig.h.Run(func() { srcSeq, srcHash = shA.Aud.Head() })
	srcJrn, srcVerdicts := shA.Jrn.Events(), verdicts(shA)
	srcProm, srcSnap := promBytes(t, shA), snapshotJSON(t, shA)

	opts := fairLoggedOptions()
	opts.OwnedShards, opts.TokenPrefix = []int{}, "b"
	t.Run("exact", func(t *testing.T) {
		svcB := New(opts)
		defer svcB.Close()
		shB := svcB.NewReplicaShard(0)
		var rd fsproto.LogReader
		head := encodeLog(recs[:len(recs)/2])
		if !bytes.HasPrefix(log, head) {
			t.Fatal("re-encoded records differ from the log's bytes")
		}
		for _, pull := range [][]byte{head, log[len(head):]} {
			if _, err := svcB.ReplayLog(shB, &rd, pull); err != nil {
				t.Fatalf("replay: %v", err)
			}
		}
		if err := svcB.PromoteShard(shB, &mig.At); err != nil {
			t.Fatalf("promote: %v", err)
		}
		var seq uint64
		var hash [32]byte
		if err := shB.DoSide(context.Background(), func() { seq, hash = shB.Aud.Head() }); err != nil {
			t.Fatal(err)
		}
		if seq != srcSeq || hash != srcHash {
			t.Fatalf("replayed audit head %d %x, the source's %d %x", seq, hash[:4], srcSeq, srcHash[:4])
		}
		if jrn := shB.Jrn.Events(); !slices.Equal(jrn[:len(jrn)-1], srcJrn) {
			t.Fatalf("replayed journal differs from source:\n--- source ---\n%+v\n--- replayed ---\n%+v", srcJrn, jrn)
		}
		if v := verdicts(shB); v != srcVerdicts {
			t.Fatalf("replayed trace verdicts (kept, dropped) %v, the source's %v", v, srcVerdicts)
		}
		sameTelemetry(t, srcProm, srcSnap, shB)
	})
	t.Run("an audit record dropped", func(t *testing.T) {
		forged := slices.Clone(recs)
		i := slices.IndexFunc(forged, func(rec fsproto.LogRecord) bool { return len(rec.Delta.Audits) > 0 })
		forged[i].Delta.Audits = forged[i].Delta.Audits[1:]
		svcB := New(opts)
		defer svcB.Close()
		shB := svcB.NewReplicaShard(0)
		if _, err := svcB.ReplayLog(shB, new(fsproto.LogReader), encodeLog(forged)); err != nil {
			t.Fatalf("replay: %v", err)
		}
		if err := svcB.PromoteShard(shB, &mig.At); !errors.Is(err, ErrDiverged) || !strings.Contains(err.Error(), "image") {
			t.Fatalf("promotion of a replica short of one audit record: got %v, want the image gate's ErrDiverged", err)
		}
	})
}

// sameTelemetry fails unless sh's /shards.prom section and JSON snapshot,
// spans included, are the source's bytes.
func sameTelemetry(t *testing.T, srcProm, srcSnap []byte, sh *Shard) {
	t.Helper()
	if got := promBytes(t, sh); !bytes.Equal(got, srcProm) {
		t.Fatalf("replayed shard snapshot differs from source:\n--- source ---\n%s\n--- replayed ---\n%s", srcProm, got)
	}
	if got := snapshotJSON(t, sh); !bytes.Equal(got, srcSnap) {
		t.Fatalf("replayed shard JSON snapshot (spans included) differs from source:\n--- source ---\n%s\n--- replayed ---\n%s", srcSnap, got)
	}
}

// TestReplayConcurrentFair: a fair logged shard that served concurrent
// writers — some of their ops traced — alongside readers on the fast path
// equals its own replay byte for byte: the /shards.prom section and the JSON
// snapshot, spans included. Concurrent ops queue behind each other, so their
// queue waits are not zero; the replica takes them from the log's Wait slot.
func TestReplayConcurrentFair(t *testing.T) {
	ctx := context.Background()
	svc, sess := readServiceWith(t, fairLoggedOptions())
	var ids atomic.Uint64
	traced := func(i int) context.Context {
		if i%3 != 0 {
			return ctx
		}
		return WithTrace(ctx, fsproto.TraceContext{TraceID: 0x7e57_0000 + ids.Add(1), Parent: uint64(i), Sampled: true})
	}
	var stop atomic.Bool
	var writes atomic.Int64
	var readers, writers sync.WaitGroup
	for r := 0; r < 2; r++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for i := r; !stop.Load(); i++ {
				req := fsproto.ReadRequest{Name: "hot.dat", Offset: uint64(i%4) * 4096, Length: 4096}
				if i%2 == 1 {
					req.Offset, req.Length = uint64(i%60)*256+100, 256
				}
				pl, err := svc.Read(traced(i), sess, req)
				if err != nil {
					t.Errorf("read: %v", err)
					return
				}
				pl.Release()
			}
		}()
	}
	for w := 0; w < 4; w++ {
		writers.Add(1)
		go func() {
			defer writers.Done()
			for i := 0; !stop.Load(); i++ {
				req := fsproto.WriteRequest{Name: "hot.dat", Offset: uint64(w*4096 + i%48*64), Data: bytes.Repeat([]byte{byte(w<<6 | i%64)}, 256)}
				if err := svc.Write(traced(i), sess, req); err != nil {
					t.Errorf("write: %v", err)
					return
				}
				writes.Add(1)
			}
		}()
	}
	// Run until the writers have written 160 times and some op has waited in
	// the queue (on a loaded host the goroutines may take turns for a while).
	sh := svc.Shards()[0]
	qwait := fmt.Sprintf("server.tenant.g%d.queue_wait_cycles", sess.gid)
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(5 * time.Millisecond) {
		if h := sh.Snapshot().Histograms[qwait]; writes.Load() >= 160 && h != nil && h.Sum > 0 {
			break
		}
		if time.Now().After(deadline) || t.Failed() {
			stop.Store(true)
			writers.Wait()
			readers.Wait()
			t.Fatal("an op failed, or none waited in the queue: the run was not concurrent")
		}
	}
	stop.Store(true)
	writers.Wait()
	readers.Wait()

	mig, log := frozenLog(t, svc, 0)
	defer mig.Resume()
	waited := 0
	for _, rec := range decodeLog(t, log) {
		if rec.Wait > 0 {
			waited++
		}
	}
	srcProm, srcSnap := promBytes(t, sh), snapshotJSON(t, sh)
	if len(sh.Snapshot().Spans) == 0 {
		t.Fatal("source snapshot holds no spans")
	}
	opts := fairLoggedOptions()
	opts.OwnedShards, opts.TokenPrefix = []int{}, "b"
	svcB := New(opts)
	defer svcB.Close()
	shB := svcB.NewReplicaShard(0)
	if _, err := svcB.ReplayLog(shB, new(fsproto.LogReader), log); err != nil {
		t.Fatalf("replay: %v", err)
	}
	if err := svcB.PromoteShard(shB, &mig.At); err != nil {
		t.Fatalf("promote: %v", err)
	}
	sameTelemetry(t, srcProm, srcSnap, shB)
	t.Logf("%d ops of %d records waited in the queue", waited, mig.At.Len)
}
