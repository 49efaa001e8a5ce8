package server

// Live shard migration: the source's freeze and the promotion of the
// replica that rebuilt the shard on the target (internal/cluster drives
// both). The target replays the source's admission log like any replica,
// and the source freezes once it has caught up: the shard is held through
// its own worker (Hold), a flush and a checkpoint land in the log, and the
// freeze reports where it stopped — the log's length and the digest of the
// controller's module image. Promotion gates on three proofs: the replica
// replayed exactly that many records (the last one the checkpoint, which
// verified the Merkle root), its own image digests equal to the source's
// (the data content the root cannot vouch for), and that image survives the
// full crash/recovery cycle (memctrl.VerifyImage — Osiris recovery plus
// VerifyRecovery) on a scratch controller. Only then is the shard adopted
// and started; the source retires at the new epoch, answering stragglers
// with the routing error so clients re-route without dropping a request.
//
// Nothing but the log crosses the wire. The sessions homed on the shard are
// rebuilt from their login records, the deterministic schedule continues
// after the last record's sequence number, and the replica boots with this
// service's own discipline and chip base, which every node of a fabric
// shares — a mismatch fails the root and digest gates.

import (
	"context"
	"fmt"

	"fsencr/internal/memctrl"
	"fsencr/internal/obsplane/journal"
)

// Frozen is where a migration froze its shard: the admission log's length
// and the digest of the controller's module image after the freeze's flush
// and checkpoint.
type Frozen struct {
	Len    uint64   `json:"len"`
	Digest [32]byte `json:"digest"`
}

// Migration is a held, frozen shard on the source node.
type Migration struct {
	svc *Service
	sh  *Shard
	h   *Hold
	// At is where the shard froze.
	At Frozen
}

// FreezeShard quiesces shard idx for migration: the shard is held (ErrHeld
// if it already is), dirty cache lines flush, the OTT seals, and a checkpoint
// lands in the admission log — so the frozen state is exactly the state a
// replayer reproduces — and, in the same step on the worker, the frozen log
// length and image digest are taken. Requests arriving during the freeze
// queue behind the hold.
func (svc *Service) FreezeShard(ctx context.Context, idx int) (*Migration, error) {
	sh, err := svc.shardAt(idx)
	if err != nil {
		return nil, err
	}
	if !sh.logOn {
		return nil, fmt.Errorf("server: shard %d has no admission log; migration needs AdmissionLog", idx)
	}
	h, err := sh.Hold(ctx)
	if err != nil {
		return nil, err
	}
	m := &Migration{svc: svc, sh: sh, h: h}
	h.Run(func() {
		sh.flush()
		sh.checkpoint()
		var img *memctrl.Image
		if img, err = sh.Sys.M.MC.ExportImage(); err == nil {
			m.At = Frozen{Len: sh.log.recs.Load(), Digest: img.Digest()}
		}
	})
	if err != nil {
		h.Resume()
		return nil, err
	}
	return m, nil
}

// Resume aborts the migration: the hold releases and the worker resumes
// serving queued and future requests as if nothing happened.
func (m *Migration) Resume() { m.h.Resume() }

// Commit finishes the migration at the new routing epoch: the source
// shard retires (queued and future tasks answer with the routing error,
// so clients re-route and retry — none of them ever executed here, so the
// retry cannot duplicate work), its sessions are tombstoned, and the
// shard leaves the owned set.
func (m *Migration) Commit(epoch uint64) {
	m.h.Retire(&WrongShardError{Shard: m.sh.id, Epoch: epoch})
	m.svc.RemoveShard(m.sh.id)
}

// DropShard discards an adopted shard without tombstoning its sessions
// (migration rollback on the target: the source resumes serving, so the
// tokens stay valid there and a tombstone here would be a lie). The
// shard's worker drains and exits. No-op if idx is not owned.
func (svc *Service) DropShard(idx int) {
	svc.mu.Lock()
	sh := svc.unregister(idx, false)
	svc.mu.Unlock()
	if sh != nil {
		sh.Close()
	}
}

// NewReplicaShard boots a detached, log-enabled shard for replaying another
// node's admission log of global shard idx, with this service's admission
// discipline and idx's chip sequence — what replay needs to reproduce the
// source's ciphertext and schedule. It is not adopted (it serves nothing)
// and has no running worker: exactly one goroutine — the replica pull loop —
// may touch it, through ReplayLog, until PromoteShard.
func (svc *Service) NewReplicaShard(idx int) *Shard {
	return NewShardWith(idx, svc.opts.config(), svc.opts.MCMode, svc.opts.Access, svc.opts.Deterministic, svc.opts.PerTenantQueue, svc.reg,
		ShardOptions{ChipSeq: chipSeqFor(svc.opts, idx), Log: true, CheckpointEvery: svc.opts.CheckpointEvery, Detached: true})
}

// PromoteShard adopts a replica shard as the serving owner and starts its
// worker. at is nil in a failover: the owner died, and the replica serves
// what it replicated. A migration passes where its source froze, and the
// replica must prove it rebuilt exactly that state — at.Len records
// replayed, an image digesting to at.Digest, the Osiris recovery gate
// passed — or it is not adopted.
func (svc *Service) PromoteShard(sh *Shard, at *Frozen) error {
	n := sh.log.recs.Load()
	detail := fmt.Sprintf("shard %d promoted from replica at log position %d", sh.id, n)
	if at != nil {
		if n != at.Len {
			return fmt.Errorf("server: replica of shard %d replayed %d records, the source froze at %d", sh.id, n, at.Len)
		}
		img, err := sh.Sys.M.MC.ExportImage()
		if err != nil {
			return err
		}
		if img.Digest() != at.Digest {
			return fmt.Errorf("%w: replayed module state differs from the source's image", ErrDiverged)
		}
		if err := memctrl.VerifyImage(svc.opts.config(), svc.opts.MCMode, img); err != nil {
			return fmt.Errorf("server: migration recovery gate: %w", err)
		}
		detail = fmt.Sprintf("shard %d rehydrated from %d records", sh.id, n)
	}
	if err := svc.AdoptShard(sh); err != nil {
		return err
	}
	sh.Jrn.Emit(journal.Event{Cycle: uint64(sh.Sys.M.MaxCoreTime()), Type: journal.ShardMigrated, Detail: detail})
	sh.Start()
	return nil
}
