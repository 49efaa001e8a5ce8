package cluster

import (
	"errors"
	"fmt"
	"net/http"
	"sync"
	"time"

	"fsencr/internal/fsproto"
	"fsencr/internal/obsplane/journal"
	"fsencr/internal/server"
)

// Replica replays a primary shard's admission log into a detached local
// shard. The shard is booted with the service's own discipline and chip
// sequence — the fabric requires every node to share them — so replay
// reproduces ciphertext, counters and the Merkle tree exactly; every
// checkpoint record in the pulled stream carries the primary's root at that
// log position, and a mismatch stops the replica cold
// (journal.ReplicaDiverged) rather than letting a divergent copy be
// promoted later.
//
// Exactly one goroutine — the pull loop, or after Stop the caller —
// touches the detached shard and the log reader; Root, the one reader from
// outside, takes the replay lock the loop holds while it replays.
type Replica struct {
	svc   *server.Service
	sh    *server.Shard
	shard int
	hc    *http.Client
	// rd has decoded every record pulled so far: the sessions the log
	// introduced before the next pull are known to it alone.
	rd fsproto.LogReader

	stop chan struct{}
	done chan struct{}
	kick chan chan error

	mu sync.Mutex
	// source is the base URL of the shard's owner, which table pushes
	// re-point (Node.ApplyTable).
	source string
	pulled uint64
	err    error

	replay sync.Mutex // held across a replay batch, and by Root
}

// NewReplica boots the detached replica shard of shard, to pull from the
// owner at source.
func NewReplica(svc *server.Service, shard int, source string) (*Replica, error) {
	if source == "" {
		return nil, fmt.Errorf("cluster: replica of shard %d needs a source", shard)
	}
	return &Replica{
		svc:    svc,
		sh:     svc.NewReplicaShard(shard),
		shard:  shard,
		source: source,
		hc:     &http.Client{Timeout: 10 * time.Second},
		stop:   make(chan struct{}),
		done:   make(chan struct{}),
		kick:   make(chan chan error),
	}, nil
}

// Start launches the pull loop at the given polling interval.
func (r *Replica) Start(interval time.Duration) {
	go r.loop(interval)
}

func (r *Replica) loop(interval time.Duration) {
	defer close(r.done)
	tick := time.NewTicker(interval)
	defer tick.Stop()
	for {
		select {
		case <-r.stop:
			return
		case <-tick.C:
			if err := r.pullOnce(); err != nil && !transient(err) {
				r.mu.Lock()
				r.err = err
				r.mu.Unlock()
				return
			}
		case ch := <-r.kick:
			err := r.pullOnce()
			if err != nil && !transient(err) {
				r.mu.Lock()
				r.err = err
				r.mu.Unlock()
				ch <- err
				return
			}
			ch <- err
		}
	}
}

// errReplay marks a pulled batch that did not replay: the shard and the log
// reader have moved past the records before the failing one, so a retry
// from the old position cannot be right.
var errReplay = errors.New("cluster: replica replay failed")

// transient reports errors worth retrying on the next tick (the primary
// briefly unreachable) as opposed to a failed replay — divergence or a
// malformed log — which is terminal.
func transient(err error) bool {
	return !errors.Is(err, errReplay)
}

// pullOnce fetches the encoded records past the replica's position and
// replays them.
func (r *Replica) pullOnce() error {
	r.mu.Lock()
	from, source := r.pulled, r.source
	r.mu.Unlock()
	body, err := fsproto.Control(r.hc, source+"/fabric/pull", shardReq{Shard: r.shard, From: from})
	if err != nil {
		return err
	}
	r.replay.Lock()
	n, err := r.svc.ReplayLog(r.sh, &r.rd, body)
	r.replay.Unlock()
	r.mu.Lock()
	r.pulled = from + uint64(n)
	r.mu.Unlock()
	if err != nil {
		if errors.Is(err, server.ErrDiverged) {
			r.sh.Jrn.Emit(journal.Event{
				Cycle:  uint64(r.sh.Sys.M.MaxCoreTime()),
				Type:   journal.ReplicaDiverged,
				Detail: fmt.Sprintf("shard %d replica diverged from %s: %v", r.shard, source, err),
			})
		}
		return fmt.Errorf("%w: %w", errReplay, err)
	}
	return nil
}

// Sync forces an immediate pull round and waits for it — tests and the
// pre-promotion catch-up use it. Returns the pull's error (nil when the
// replica is caught up with its source).
func (r *Replica) Sync() error {
	ch := make(chan error, 1)
	select {
	case r.kick <- ch:
		return <-ch
	case <-r.done:
		return r.Err()
	}
}

// Stop halts the pull loop (idempotent).
func (r *Replica) Stop() {
	select {
	case <-r.stop:
	default:
		close(r.stop)
	}
	<-r.done
}

// Err reports the terminal replication error, if any (divergence).
func (r *Replica) Err() error {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.err
}

// ReplicaStatus is the replica sync report.
type ReplicaStatus struct {
	Shard  int
	Pulled uint64
	Err    string
}

// Status reports the replica's sync position.
func (r *Replica) Status() ReplicaStatus {
	r.mu.Lock()
	defer r.mu.Unlock()
	st := ReplicaStatus{Shard: r.shard, Pulled: r.pulled}
	if r.err != nil {
		st.Err = r.err.Error()
	}
	return st
}

// Root returns the replica shard's current Merkle root (divergence
// comparisons in tests).
func (r *Replica) Root() [32]byte {
	r.replay.Lock()
	defer r.replay.Unlock()
	return r.sh.Sys.M.MC.MerkleRoot()
}

// setSource points the pull loop at the shard's current owner.
func (r *Replica) setSource(source string) {
	r.mu.Lock()
	r.source = source
	r.mu.Unlock()
}

// Promote adopts the replica as the serving owner. A migration passes where
// its source froze: the replica must then catch up with the frozen log, and a
// pull that fails leaves it running as it was. A failover's catch-up is best
// effort (the primary is usually dead). The pull loop then stops for good,
// and server.PromoteShard gates the adoption; a replica that diverged, or
// that the gates refuse, is not adopted and reports why in Err.
func (r *Replica) Promote(at *server.Frozen) error {
	if err := r.Sync(); err != nil && at != nil {
		return fmt.Errorf("cluster: replica of shard %d cannot reach the frozen log: %w", r.shard, err)
	}
	r.Stop()
	if err := r.Err(); err != nil {
		return fmt.Errorf("cluster: refusing to promote diverged replica of shard %d: %w", r.shard, err)
	}
	if err := r.svc.PromoteShard(r.sh, at); err != nil {
		r.mu.Lock()
		r.err = err
		r.mu.Unlock()
		return err
	}
	return nil
}
