package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"slices"
	"testing"

	"fsencr/internal/addr"
	"fsencr/internal/config"
	"fsencr/internal/fsproto"
	"fsencr/internal/kernel"
	"fsencr/internal/memctrl"
	"fsencr/internal/obsplane/journal"
)

// seqFor hands out per-shard deterministic schedule sequence numbers.
type seqFor struct {
	next map[int]uint64
	n    int
}

func newSeqFor(nShards int) *seqFor { return &seqFor{next: make(map[int]uint64), n: nShards} }

func (s *seqFor) take(gid uint32) *uint64 {
	idx := fsproto.ShardIndex(gid, s.n)
	v := s.next[idx]
	s.next[idx] = v + 1
	return &v
}

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

// clusterTestOptions is the two-shard deterministic logging configuration
// the replay tests run under.
func clusterTestOptions() Options {
	return Options{
		Shards:          2,
		MCMode:          memctrl.Mode{MemEncryption: true, FileEncryption: true},
		Access:          kernel.ModeDAX,
		Deterministic:   true,
		AdmissionLog:    true,
		ChipSeqBase:     DefaultChipSeqBase,
		CheckpointEvery: 4,
	}
}

// runReplayWorkload drives a workload covering every op kind of the table
// against svc — each tenant on its own shard: every kind succeeding, every
// kind failing on the worker (so the failure is itself a log record), a
// third of the ops carrying a sampled trace context — and returns the
// sessions by tenant.
func runReplayWorkload(t *testing.T, svc *Service, seqs *seqFor, tA, tB string) map[string]*Session {
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
		gid := fsproto.TenantGID(tn)
		s, err := svc.Login(next(), tn, 1, "pw-"+tn, *seqs.take(gid))
		ok("login "+tn, err)
		sess[tn] = s
		_, err = svc.Login(next(), tn, 1, "guessed", *seqs.take(gid))
		fails("login "+tn+" with the wrong passphrase", err)
	}
	for _, tn := range []string{tA, tB} {
		s := sess[tn]
		seq := func() fsproto.Seq { return seqs.take(s.gid) }
		create := fsproto.CreateRequest{Name: "data.bin", Perm: 0600, Size: 2 * 4096, Encrypted: true}
		create.Seq = seq()
		ok("create "+tn, svc.Create(next(), s, create))
		create.Seq = seq()
		fails("create "+tn+" of an existing file", svc.Create(next(), s, create))
		payload := bytes.Repeat([]byte{byte(len(tn))}, 4096)
		ok("write "+tn, svc.Write(next(), s, fsproto.WriteRequest{Name: "data.bin", Data: payload, Seq: seq()}))
		ok("chmod "+tn, svc.Chmod(next(), s, fsproto.ChmodRequest{Name: "data.bin", Perm: 0640, Seq: seq()}))
		pl, err := svc.Read(next(), s, fsproto.ReadRequest{Name: "data.bin", Length: 4096, Seq: seq()})
		ok("read "+tn, err)
		pl.Release()
		_, err = svc.Read(next(), s, fsproto.ReadRequest{Name: "data.bin", Offset: 1 << 40, Length: 64, Seq: seq()})
		fails("read "+tn+" beyond EOF", err)
		ok("create tmp "+tn, svc.Create(next(), s, fsproto.CreateRequest{Name: "tmp.bin", Perm: 0600, Size: 4096, Encrypted: true, Seq: seq()}))
		ok("delete "+tn, svc.Delete(next(), s, fsproto.DeleteRequest{Name: "tmp.bin", Seq: seq()}))
		fails("delete "+tn+" of a missing file", svc.Delete(next(), s, fsproto.DeleteRequest{Name: "tmp.bin", Seq: seq()}))

		kvCreate := fsproto.KVCreateRequest{Store: "kv", Size: 16 * 4096}
		kvCreate.Seq = seq()
		ok("kv create "+tn, svc.KVCreate(next(), s, kvCreate))
		kvCreate.Seq = seq()
		fails("kv create "+tn+" of an existing store", svc.KVCreate(next(), s, kvCreate))
		for i := 0; i < 6; i++ {
			ok("kv put "+tn, svc.KVPut(next(), s, fsproto.KVPutRequest{
				Store: "kv", Key: uint64(i), Value: bytes.Repeat([]byte{byte(i)}, 64), Seq: seq(),
			}))
		}
		fails("kv put "+tn+" into a missing store", svc.KVPut(next(), s, fsproto.KVPutRequest{Store: "nope", Key: 1, Value: []byte{1}, Seq: seq()}))
		pl, err = svc.KVGet(next(), s, fsproto.KVGetRequest{Store: "kv", Key: 3, Seq: seq()})
		ok("kv get "+tn, err)
		if !bytes.Equal(pl.Data, bytes.Repeat([]byte{3}, 64)) {
			t.Fatalf("kv get %s returned %x", tn, pl.Data)
		}
		pl.Release()
		_, err = svc.KVGet(next(), s, fsproto.KVGetRequest{Store: "kv", Key: 99, Seq: seq()})
		fails("kv get "+tn+" of a missing key", err)
		existed, err := svc.KVDelete(next(), s, fsproto.KVDeleteRequest{Store: "kv", Key: 3, Seq: seq()})
		ok("kv delete "+tn, err)
		if !existed {
			t.Fatalf("kv delete %s: key 3 did not exist", tn)
		}
		_, err = svc.KVDelete(next(), s, fsproto.KVDeleteRequest{Store: "nope", Key: 3, Seq: seq()})
		fails("kv delete "+tn+" in a missing store", err)
	}
	// Cross-tenant denials: tA probing tB's file lands (and is journaled) on
	// tB's shard, in schedule order, under a shadow session replay must
	// rebuild from the records' credentials.
	xseq := func() fsproto.Seq { return seqs.take(fsproto.TenantGID(tB)) }
	fails("cross-tenant write with the wrong passphrase", svc.Write(next(), sess[tA], fsproto.WriteRequest{
		Name: "data.bin", Tenant: tB, Data: []byte{1}, Passphrase: "wrong", Seq: xseq(),
	}))
	fails("cross-tenant chmod", svc.Chmod(next(), sess[tA], fsproto.ChmodRequest{Name: "data.bin", Tenant: tB, Perm: 0666, Seq: xseq()}))
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

// TestReplayRebuildsShard freezes a logged deterministic shard and rebuilds
// it on a second (empty) node the way a migration does: a replica shard
// replays the log — in two pulls, the first short of the freeze — and is
// promoted at the freeze point. The promoted shard must pass the gates,
// serve the migrated sessions where the schedule stopped, and emit a
// byte-identical /shards.prom section, JSON snapshot (spans of the traced
// ops included) and journal. The workload must put every kind of the op
// table into the log, so an op added without replay coverage fails here.
func TestReplayRebuildsShard(t *testing.T) {
	svcA := New(clusterTestOptions())
	defer svcA.Close()
	taken := map[string]bool{}
	tA := tenantOnShard(t, 0, 2, taken)
	tB := tenantOnShard(t, 1, 2, taken)
	seqs := newSeqFor(2)
	sess := runReplayWorkload(t, svcA, seqs, tA, tB)

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
	// token, continuing the deterministic schedule where the source
	// stopped.
	sB, err := svcB.session(sess[tB].Token())
	if err != nil {
		t.Fatalf("migrated session not found on target: %v", err)
	}
	pl, err := svcB.Read(context.Background(), sB, fsproto.ReadRequest{Name: "data.bin", Length: 4096, Seq: seqs.take(sB.gid)})
	if err != nil {
		t.Fatalf("post-migration read: %v", err)
	}
	defer pl.Release()
	want := bytes.Repeat([]byte{byte(len(tB))}, 4096)
	if !bytes.Equal(pl.Data, want) {
		t.Fatalf("post-migration read returned wrong bytes")
	}

	// The source answers the tombstoned token with the routing error.
	if _, err := svcA.session(sess[tB].Token()); err == nil {
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
	runReplayWorkload(t, svcA, newSeqFor(2), tA, tB)
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
	runReplayWorkload(t, svcA, newSeqFor(2), tenantOnShard(t, 0, 2, taken), tenantOnShard(t, 1, 2, taken))
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
