package server

// The admission log and its replay. A logged shard's worker encodes a record
// of each op it executes (succeeding or failing) and of every flush and
// checkpoint straight into append-only chunks, in fsproto's record format: the
// bytes a replica pulls, a migration's target included. A shard's simulated state is a
// pure function of its log, so replaying the log into a fresh shard booted
// with the same chip sequence rebuilds it byte for byte. Replay runs the
// serving path: applyRecord decodes the request through the live decode,
// stages it as exec does and hands the same task to the same Shard.serve — the
// only code that samples the shard clock, observes the per-tenant histograms
// and drives the trace scope — so the deterministic registry is reproduced
// too. Checkpoint records carry the source's Merkle root, so divergence is
// caught at every cadence boundary.

import (
	"context"
	"encoding/binary"
	"fmt"
	"sort"
	"sync/atomic"

	"fsencr/internal/fsproto"
)

// logChunkBytes is the size of a log chunk. A record never spans two: one
// that may not fit in the tail chunk starts the next, sized to hold it.
const logChunkBytes = 64 << 10

// logStore is a shard's admission log: encoded records in append-only chunks,
// each knowing the log position of its first record. Worker-only but for the
// footprint counts, which the metrics export reads. gen tells this log from
// every other, also from the earlier logs of its shard index.
type logStore struct {
	w           fsproto.LogWriter
	gen         uint64
	chunks      []logChunk
	recs, bytes atomic.Uint64
}

var logGens atomic.Uint64

type logChunk struct {
	first uint64 // log position of the chunk's first record
	b     []byte
}

// append encodes rec at the tail of the log.
func (l *logStore) append(rec *fsproto.LogRecord) {
	room := rec.SizeBound()
	if n := len(l.chunks); n == 0 || len(l.chunks[n-1].b)+room > cap(l.chunks[n-1].b) {
		l.chunks = append(l.chunks, logChunk{first: l.recs.Load(), b: make([]byte, 0, max(room, logChunkBytes))})
	}
	c := &l.chunks[len(l.chunks)-1]
	n := len(c.b)
	c.b = l.w.Append(c.b, rec)
	l.recs.Add(1)
	l.bytes.Add(uint64(len(c.b) - n))
}

// from returns the encoded records [k, end) as slices of the chunks. Nothing
// is copied: appends only write past a chunk's length, where the slices stop.
func (l *logStore) from(k uint64) [][]byte {
	i := sort.Search(len(l.chunks), func(i int) bool { return l.chunks[i].first > k }) - 1
	if i < 0 || k >= l.recs.Load() {
		return nil
	}
	b := l.chunks[i].b
	for skip := k - l.chunks[i].first; skip > 0; skip-- {
		n, m := binary.Uvarint(b) // the store's own bytes: well formed
		b = b[m+int(n):]
	}
	out := make([][]byte, 0, len(l.chunks)-i)
	out = append(out, b[:len(b):len(b)])
	for _, c := range l.chunks[i+1:] {
		out = append(out, c.b[:len(c.b):len(c.b)])
	}
	return out
}

// logOp appends the record of an executed op task. The session's log index
// is resolved once per (session, log), by its token: the token's first record
// in the log introduces it, whichever Session object that was.
func (sh *Shard) logOp(t *task) {
	st, s := sh.state(t.sess), t.sess
	if st.logGen != sh.log.gen {
		st.logSess, st.logGen = sh.log.w.Session(s.token), sh.log.gen
	}
	sh.log.append(&fsproto.LogRecord{
		Kind: t.kind, Seq: t.seq, GID: t.tenant,
		Session: st.logSess, Token: s.token, Tenant: s.tenant, EUID: s.uid, Pass: s.pass,
		TraceID: t.trace.TraceID, Parent: t.trace.Parent, Sampled: t.trace.Sampled,
		Req: t.body, Framed: t.framed,
	})
}

// maybeCheckpoint folds a Merkle-root checkpoint into the log once
// ckptEvery operation records have landed since the last one. Live
// admission only: a replayer verifies the checkpoints its log carries
// instead of minting its own.
func (sh *Shard) maybeCheckpoint() {
	if sh.ckptEvery > 0 && sh.sinceCkpt >= sh.ckptEvery {
		sh.checkpoint()
	}
}

// checkpoint appends the current Merkle root as a log record. Root()
// flushes dirty tree leaves, perturbing merkle.flushes — which is fine
// precisely because the checkpoint is itself a log record: every replayer
// executes the identical flush at the identical log position.
func (sh *Shard) checkpoint() {
	sh.sinceCkpt = 0
	sh.log.append(&fsproto.LogRecord{Kind: fsproto.RecCheckpoint, Root: sh.Sys.M.MC.MerkleRoot()})
}

// flush executes and logs a flush record: write back every dirty cache
// line (ascending address order — deterministic) and seal the OTT into
// the encrypted region. Run identically at migration freeze and replay.
func (sh *Shard) flush() {
	sh.Sys.M.WritebackAll()
	sh.Sys.M.MC.FlushOTT()
	sh.log.append(&fsproto.LogRecord{Kind: fsproto.RecFlush})
}

// replaySession returns the session staged on sh under token, staging one
// from the credentials of the record that introduces the token to the log
// (its login, or its first cross-tenant op). AdoptShard later folds the
// staged sessions into the service session table.
func (svc *Service) replaySession(sh *Shard, token, tenant string, euid uint32, pass string) *Session {
	s, ok := sh.replaySessions[token]
	if !ok {
		s = svc.newSession(token, tenant, euid, pass)
		sh.replaySessions[token] = s
	}
	return s
}

// applyRecord executes the admission-log record at position pos against sh,
// which appends it to its own log (so a rehydrated shard or promoted replica
// can itself be replicated from). Returns an error only for structural
// failures — checkpoint divergence, undecodable or invalid requests; a
// replayed op's application error is the faithfully reproduced live outcome.
func (svc *Service) applyRecord(sh *Shard, rec *fsproto.LogRecord, pos uint64) error {
	switch rec.Kind {
	case fsproto.RecFlush:
		sh.flush()
		return nil
	case fsproto.RecCheckpoint:
		if root := sh.Sys.M.MC.MerkleRoot(); root != rec.Root {
			return fmt.Errorf("%w: checkpoint at pos %d: root %x != %x", ErrDiverged, pos, root, rec.Root)
		}
		sh.log.append(rec)
		sh.sinceCkpt = 0
		return nil
	}
	o := ops[rec.Kind] // the reader accepts op kinds of the table only
	req := o.newReq()
	wire := fsproto.Request{Path: o.route, ContentType: fsproto.ContentTypeJSON, Body: rec.Req}
	if rec.Framed {
		wire.ContentType = fsproto.ContentTypeFrame
	}
	if err := decode(&wire, req); err != nil {
		return fmt.Errorf("record %d (%v): %w", pos, rec.Kind, err)
	}
	sess := svc.replaySession(sh, rec.Token, rec.Tenant, rec.EUID, rec.Pass)
	// Staging re-runs the live validation, so a forged length in a shipped
	// log fails the replay instead of allocating.
	_, tgt, pl, err := svc.stage(o, sh, sess, req)
	if err != nil {
		return fmt.Errorf("record %d (%v): %w", pos, rec.Kind, err)
	}
	tc := fsproto.TraceContext{TraceID: rec.TraceID, Parent: rec.Parent, Sampled: rec.Sampled}
	sh.serve(o.task(svc, tgt, sess, req, rec.Seq, tc, pl.Data, rec.Req, rec.Framed))
	pl.Release()
	if rec.Seq+1 > sh.detNext {
		// Continue the deterministic schedule where the source stopped.
		sh.detNext = rec.Seq + 1
	}
	return nil
}

// ReplayLog replays encoded admission-log records — a whole log, or the next
// batch of one rd has read from position 0 — into a detached shard and
// reports how many it applied. The caller is the only goroutine touching sh:
// a replica's pull loop, before PromoteShard starts the shard.
func (svc *Service) ReplayLog(sh *Shard, rd *fsproto.LogReader, b []byte) (n int, err error) {
	var rec fsproto.LogRecord
	for ; len(b) > 0; n++ {
		pos := rd.Records()
		if b, err = rd.Next(b, &rec); err != nil {
			return n, err
		}
		if err = svc.applyRecord(sh, &rec, pos); err != nil {
			return n, err
		}
	}
	return n, nil
}

// RecordsFrom returns shard idx's encoded admission log from position from
// on, as slices of its chunks taken on the worker (serialized with tenant
// traffic; nothing is copied). It is the /fabric/pull surface replicas
// replicate from, decoded by the LogReader that read [0, from).
func (svc *Service) RecordsFrom(ctx context.Context, idx int, from uint64) ([][]byte, error) {
	sh, err := svc.shardAt(idx)
	if err != nil {
		return nil, err
	}
	var out [][]byte
	if err := sh.DoSide(ctx, func() { out = sh.log.from(from) }); err != nil {
		return nil, err
	}
	return out, nil
}

// LogLen reports shard idx's admission-log length (tests, replica sync
// bookkeeping).
func (svc *Service) LogLen(ctx context.Context, idx int) (uint64, error) {
	sh, err := svc.shardAt(idx)
	if err != nil {
		return 0, err
	}
	var n uint64
	err = sh.DoSide(ctx, func() { n = sh.log.recs.Load() })
	return n, err
}
