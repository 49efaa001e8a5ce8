package server

// Admission-log replay: a shard's simulated state is a pure function of
// its sequence-ordered admission log, so replaying the log into a fresh
// shard booted with the same chip sequence reconstructs the source shard
// byte for byte — the state-transfer primitive behind live migration and
// replication. Replay runs the serving path: applyRecord looks the record's
// kind up in the op table (ops.go), decodes and stages the request exactly
// as exec does, and hands the same task to the same Shard.serve — the only
// code that samples the shard clock, observes the per-tenant histograms and
// drives the trace scope — so the per-shard deterministic registry is
// reproduced too. Checkpoint records carry the source's Merkle root for
// divergence detection at every cadence boundary.

import (
	"context"
	"encoding/hex"
	"encoding/json"
	"fmt"

	"fsencr/internal/fsproto"
)

// appendRecord appends one record to the shard's admission log,
// position-stamped. Worker-goroutine (or pre-Start replayer) only.
func (sh *Shard) appendRecord(rec fsproto.LogRecord) {
	rec.Pos = uint64(len(sh.recs))
	sh.recs = append(sh.recs, rec)
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
	root := sh.Sys.M.MC.MerkleRoot()
	sh.appendRecord(fsproto.LogRecord{Kind: fsproto.RecCheckpoint, Root: hex.EncodeToString(root[:])})
}

// flush executes and logs a flush record: write back every dirty cache
// line (ascending address order — deterministic) and seal the OTT into
// the encrypted region. Run identically at migration freeze and replay.
func (sh *Shard) flush() {
	sh.Sys.M.WritebackAll()
	sh.Sys.M.MC.FlushOTT()
	sh.appendRecord(fsproto.LogRecord{Kind: fsproto.RecFlush})
}

// replaySession returns the session staged on sh under token, staging one
// from the given credentials when the token never logged in through this
// shard's log (cross-tenant traffic, or a session record shipped beside the
// log). AdoptShard later folds the staged sessions into the service session
// table.
func (svc *Service) replaySession(sh *Shard, token, tenant string, euid uint32, pass string) *Session {
	s, ok := sh.replaySessions[token]
	if !ok {
		s = svc.newSession(token, tenant, euid, pass)
		sh.replaySessions[token] = s
	}
	return s
}

// applyRecord executes one admission-log record against sh, which appends
// it to its own log (so a rehydrated shard or promoted replica can itself
// be replicated from). Returns an error only for structural failures —
// checkpoint divergence, unknown kinds, undecodable or invalid requests; a
// replayed op's application error is the faithfully reproduced live
// outcome.
func (svc *Service) applyRecord(sh *Shard, rec fsproto.LogRecord) error {
	switch rec.Kind {
	case fsproto.RecFlush:
		sh.flush()
	case fsproto.RecCheckpoint:
		root := sh.Sys.M.MC.MerkleRoot()
		if got := hex.EncodeToString(root[:]); got != rec.Root {
			return fmt.Errorf("%w: checkpoint at pos %d: root %s != %s", ErrDiverged, rec.Pos, got, rec.Root)
		}
		sh.appendRecord(rec)
		sh.sinceCkpt = 0
	default:
		o := ops[rec.Kind]
		if o == nil {
			return fmt.Errorf("record %d: unknown admission-log record kind %q", rec.Pos, rec.Kind)
		}
		req := o.newReq()
		if err := json.Unmarshal(rec.Req, req); err != nil {
			return fmt.Errorf("record %d (%s): %w", rec.Pos, rec.Kind, err)
		}
		sess := svc.replaySession(sh, rec.Token, rec.Tenant, rec.EUID, rec.Pass)
		// Staging re-runs the live validation, so a forged length in a
		// shipped log fails the replay instead of allocating.
		_, tgt, pl, err := svc.stage(o, sh, sess, req)
		if err != nil {
			return fmt.Errorf("record %d (%s): %w", rec.Pos, rec.Kind, err)
		}
		tc := fsproto.TraceContext{TraceID: rec.TraceID, Parent: rec.Parent, Sampled: rec.Sampled}
		t := o.task(svc, tgt, sess, req, rec.Seq, tc, pl.Data)
		t.rec = &rec
		sh.serve(t)
		pl.Release()
		if rec.Seq+1 > sh.detNext {
			// Continue the deterministic schedule where the source stopped.
			sh.detNext = rec.Seq + 1
		}
	}
	return nil
}

// ReplayRecords replays an admission log (or its next batch) into a
// detached shard. The caller is the only goroutine touching it: InstallShard
// before Start, or a replica's pull loop.
func (svc *Service) ReplayRecords(sh *Shard, recs []fsproto.LogRecord) error {
	for i := range recs {
		if err := svc.applyRecord(sh, recs[i]); err != nil {
			return err
		}
	}
	return nil
}

// RecordsFrom snapshots shard idx's admission log from position from
// onward (serialized with tenant traffic on the worker). It is the
// /fabric/pull surface replicas replicate from.
func (svc *Service) RecordsFrom(ctx context.Context, idx int, from uint64) ([]fsproto.LogRecord, error) {
	sh, err := svc.shardAt(idx)
	if err != nil {
		return nil, err
	}
	var out []fsproto.LogRecord
	err = sh.DoSide(ctx, func() {
		if from >= uint64(len(sh.recs)) {
			return
		}
		out = append(out, sh.recs[from:]...)
	})
	if err != nil {
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
	err = sh.DoSide(ctx, func() { n = uint64(len(sh.recs)) })
	return n, err
}
