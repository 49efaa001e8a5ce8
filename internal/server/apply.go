package server

// The admission log and its replay. A logged shard encodes a record of each
// op it executes (succeeding or failing), of every flush, checkpoint
// and logout, and of the side effects of each drain of the reads served off
// it (applyReads), straight into append-only chunks, in fsproto's record
// format: the bytes a replica pulls, a migration's target included. A shard's
// simulated state is a pure function of its log, so replaying the log into a
// fresh shard booted with the same chip sequence rebuilds it byte for byte
// (a read served under the read lock changes nothing but its side effects, which
// replay applies at the position, so at the clock, the source drained them).
// Replay runs the serving path: applyRecord decodes the request through the
// live decode, stages it as exec does and hands the same task to the same
// Shard.serve — the only code but applyReads that samples the shard clock,
// observes the per-tenant histograms and drives the trace scope — so the
// deterministic registry is reproduced too. Checkpoint records carry the
// source's Merkle root, so divergence is caught at every cadence boundary.

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
// each knowing the log position of its first record. Touched in a mutation
// bracket only, but for the footprint counts, which the metrics export reads.
type logStore struct {
	w           fsproto.LogWriter
	chunks      []logChunk
	recs, bytes atomic.Uint64
}

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

// logOp appends the record of an executed op task under its token's index in
// this log, which the log's writer keeps: the token's first record here
// introduces it, whichever Session object acted.
func (sh *Shard) logOp(t *task, wait uint64) {
	s := t.sess
	sh.log.append(&fsproto.LogRecord{
		Kind: t.kind, Wait: wait, GID: t.tenant,
		Session: sh.log.w.Session(s.token), Token: s.token, Tenant: s.tenant, EUID: s.uid, Pass: s.pass,
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

// logout drops token's state, and its process from the kernel, logging that
// where the log knows the token.
func (sh *Shard) logout(token string) {
	if st := sh.sess[token]; st != nil {
		sh.Sys.ExitProcess(st.proc)
		sh.sessMu.Lock()
		delete(sh.sess, token)
		sh.sessMu.Unlock()
	}
	if i := sh.log.w.Session(token); i < sh.log.w.Sessions() {
		sh.log.append(&fsproto.LogRecord{Kind: fsproto.RecLogout, Session: i, Token: token})
	}
}

// applyRecord executes the admission-log record at position pos against sh,
// which appends it to its own log (so a rehydrated shard or promoted replica
// can itself be replicated from). Returns an error only for structural
// failures — checkpoint divergence, undecodable or invalid requests, a wait
// longer than the shard has run; a replayed op's application error is the
// faithfully reproduced live outcome.
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
	case fsproto.RecReadDeltas:
		sh.applyReads(&rec.Delta, rec.Traces)
		return nil
	case fsproto.RecLogout:
		sh.logout(rec.Token)
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
	// The op acts with the credentials the live op acted with; its token's
	// state here, if any, is found by token. Only an op that runs keeps them.
	sess := newSession(rec.Token, rec.Tenant, rec.EUID, rec.Pass)
	// Staging re-runs the live validation, so a forged length in a shipped
	// log fails the replay instead of allocating.
	tgt, pl, err := svc.stage(o, sh, sess, req)
	if err != nil {
		return fmt.Errorf("record %d (%v): %w", pos, rec.Kind, err)
	}
	// The op waited as long as it did live: serve starts at the clock the
	// source served it at, so the queue_wait observation and span match.
	now := uint64(sh.Sys.M.MaxCoreTime())
	if rec.Wait > now {
		pl.Release()
		return fmt.Errorf("record %d (%v): %w: a wait of %d cycles at clock %d", pos, rec.Kind, ErrBadRequest, rec.Wait, now)
	}
	t := o.task(svc, tgt, sess, req, fsproto.TraceContext{TraceID: rec.TraceID, Parent: rec.Parent, Sampled: rec.Sampled}, pl.Data, rec.Req, rec.Framed)
	t.enq = now - rec.Wait
	sh.serve(t)
	pl.Release()
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
// on, as slices of its chunks taken in a bracket (serialized with tenant
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
