package server

// Live shard migration, source and target halves. The source quiesces the
// shard through its own worker (Hold), folds a flush and a checkpoint
// into the admission log, and exports the log, the sessions homed on the
// shard, and the controller's serialized image. The target rehydrates by
// replaying the log into a fresh shard booted with the same chip
// sequence, then gates cutover on two proofs: the replayed Merkle root
// must equal the shipped image's, and the image itself must survive the
// full crash/recovery cycle (memctrl.VerifyImage — Osiris recovery plus
// VerifyRecovery) on a scratch controller. Only then is the shard adopted
// and started; the source retires at the new epoch, answering stragglers
// with the routing error so clients re-route without dropping a request.

import (
	"bytes"
	"context"
	"fmt"
	"sort"

	"fsencr/internal/fsproto"
	"fsencr/internal/memctrl"
	"fsencr/internal/obsplane/journal"
)

// ShardState is a frozen shard's exported, wire-serializable state.
type ShardState struct {
	// Shard is the global shard index; ChipSeq the controller sequence the
	// target must boot with.
	Shard   int
	ChipSeq uint64
	// Det/DetNext carry the admission discipline and the next deterministic
	// schedule position.
	Det     bool
	DetNext uint64
	// Log is the full admission log, encoded (fsproto.LogWriter); replaying
	// it is how the target reconstructs state.
	Log []byte
	// Sessions lists the sessions homed on the shard (belt and braces: the
	// log's login records rebuild them; these verify nothing went missing).
	Sessions []fsproto.SessionRecord
	// Image is the verification artifact: the source controller's full
	// module snapshot, including the Merkle root replay must reproduce.
	Image *memctrl.Image
}

// Migration is a held, frozen shard on the source node.
type Migration struct {
	svc *Service
	sh  *Shard
	h   *Hold
}

// Shard returns the global index of the migrating shard.
func (m *Migration) Shard() int { return m.sh.id }

// FreezeShard quiesces shard idx for migration: the shard is held (ErrHeld
// if it already is), dirty cache lines flush, the OTT seals, and a checkpoint
// lands in the admission log — so the frozen state is exactly the state a
// replayer reproduces. Requests arriving during the freeze queue behind the
// hold.
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
	h.Run(func() {
		sh.flush()
		sh.checkpoint()
	})
	return &Migration{svc: svc, sh: sh, h: h}, nil
}

// Export snapshots the frozen shard into its wire state. Under the hold it
// takes the log's chunks as they are; they are joined into one buffer after
// the worker is free again.
func (m *Migration) Export() (*ShardState, error) {
	var st *ShardState
	var log [][]byte
	var err error
	m.h.Run(func() {
		var img *memctrl.Image
		img, err = m.sh.Sys.M.MC.ExportImage()
		if err != nil {
			return
		}
		log = m.sh.log.from(0)
		st = &ShardState{
			Shard:    m.sh.id,
			ChipSeq:  m.sh.chipSeq,
			Det:      m.sh.det,
			DetNext:  m.sh.detNext,
			Sessions: m.svc.sessionRecordsFor(m.sh.id),
			Image:    img,
		}
	})
	if st != nil {
		st.Log = bytes.Join(log, nil)
	}
	return st, err
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

// ChipSeqFor derives the controller chip sequence global shard idx boots
// with under this service's configured base — what a replica of that
// shard must boot with to reproduce its ciphertext.
func (svc *Service) ChipSeqFor(idx int) uint64 { return chipSeqFor(svc.opts, idx) }

// NewReplicaShard boots a detached, log-enabled shard for replaying
// another node's admission log. It is not adopted (it serves nothing) and
// has no running worker: exactly one goroutine — the replica pull loop —
// may touch it, through ReplayLog, until PromoteShard.
func (svc *Service) NewReplicaShard(idx int, chipSeq uint64, det bool) *Shard {
	return NewShardWith(idx, svc.opts.config(), svc.opts.MCMode, svc.opts.Access, det, svc.opts.PerTenantQueue, svc.reg,
		ShardOptions{ChipSeq: chipSeq, Log: true, CheckpointEvery: svc.opts.CheckpointEvery, Detached: true})
}

// PromoteShard adopts a replica shard as the serving owner (failover
// after the primary died) and starts its worker.
func (svc *Service) PromoteShard(sh *Shard) error {
	if err := svc.AdoptShard(sh); err != nil {
		return err
	}
	sh.Jrn.Emit(journal.Event{
		Cycle:  uint64(sh.Sys.M.MaxCoreTime()),
		Type:   journal.ShardMigrated,
		Detail: fmt.Sprintf("shard %d promoted from replica at log position %d", sh.id, sh.log.recs.Load()),
	})
	sh.Start()
	return nil
}

// sessionRecordsFor lists the sessions homed on global shard idx, ordered
// by token.
func (svc *Service) sessionRecordsFor(idx int) []fsproto.SessionRecord {
	svc.mu.RLock()
	defer svc.mu.RUnlock()
	var out []fsproto.SessionRecord
	for tok, s := range svc.sessions {
		if fsproto.ShardIndex(s.gid, svc.nShards) == idx {
			out = append(out, fsproto.SessionRecord{Token: tok, Tenant: s.tenant, GID: s.gid, EUID: s.uid, Pass: s.pass})
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Token < out[j].Token })
	return out
}

// InstallShard rehydrates a migrated shard from its exported state: boot
// a detached shard with the source's chip sequence, replay the admission
// log, prove the replayed Merkle root equals the shipped image's, prove
// the image passes the Osiris recovery gate on a scratch controller, then
// adopt and start the shard. On any failure nothing is adopted — the
// caller rolls the migration back on the source.
func (svc *Service) InstallShard(st *ShardState) error {
	if st == nil || st.Image == nil {
		return fmt.Errorf("server: shard state carries no image")
	}
	sh := svc.NewReplicaShard(st.Shard, st.ChipSeq, st.Det)
	n, err := svc.ReplayLog(sh, new(fsproto.LogReader), st.Log)
	if err != nil {
		return err
	}
	if root := sh.Sys.M.MC.MerkleRoot(); root != st.Image.Root {
		return fmt.Errorf("%w: replayed root differs from shipped image root", ErrDiverged)
	}
	// The root only vouches for the metadata region; export the replayed
	// module (side-effect-free on a flushed shard) and require the full
	// image — frames, counters, ECC, OTT — to be byte-identical.
	replayed, err := sh.Sys.M.MC.ExportImage()
	if err != nil {
		return err
	}
	if !replayed.Equal(st.Image) {
		return fmt.Errorf("%w: replayed module state differs from shipped image", ErrDiverged)
	}
	if err := memctrl.VerifyImage(svc.opts.config(), svc.opts.MCMode, st.Image); err != nil {
		return fmt.Errorf("server: migration recovery gate: %w", err)
	}
	// The log's login records rebuilt every session homed here; the
	// explicit session records catch any that somehow never hit the log.
	for _, sr := range st.Sessions {
		svc.replaySession(sh, sr.Token, sr.Tenant, sr.EUID, sr.Pass)
	}
	if st.DetNext > sh.detNext {
		sh.detNext = st.DetNext
	}
	if err := svc.AdoptShard(sh); err != nil {
		return err
	}
	sh.Jrn.Emit(journal.Event{
		Cycle:  uint64(sh.Sys.M.MaxCoreTime()),
		Type:   journal.ShardMigrated,
		Detail: fmt.Sprintf("shard %d rehydrated from %d records", st.Shard, n),
	})
	sh.Start()
	return nil
}
