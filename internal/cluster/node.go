package cluster

import (
	"errors"
	"fmt"
	"net/http"
	"sync"
	"time"

	"fsencr/internal/fsproto"
	"fsencr/internal/server"
)

// Node wraps one fsencrd service with the fabric endpoints the
// coordinator drives. The node's /v1 surface is unchanged; /fabric/* is
// the control plane: migration source verbs (freeze, resume, commit), the
// replication pull surface, replica management (start, promote, status, and
// discard on a migration target that rolls back), and placement-table
// pushes.
type Node struct {
	svc  *server.Service
	base string

	mu    sync.Mutex
	migs  map[int]*server.Migration
	reps  map[int]*Replica
	table fsproto.ClusterTable
}

// NewNode wraps svc. Call SetBase once the listener address is known —
// the forwarder needs it to avoid proxying to itself.
func NewNode(svc *server.Service) *Node {
	return &Node{svc: svc, migs: make(map[int]*server.Migration), reps: make(map[int]*Replica)}
}

// SetBase records this node's advertised base URL.
func (n *Node) SetBase(base string) {
	n.mu.Lock()
	n.base = base
	n.mu.Unlock()
}

// Service exposes the wrapped service.
func (n *Node) Service() *server.Service { return n.svc }

// Close stops replica pull loops and drains the service.
func (n *Node) Close() {
	n.mu.Lock()
	reps := n.reps
	n.reps = make(map[int]*Replica)
	n.mu.Unlock()
	for _, r := range reps {
		r.Stop()
	}
	n.svc.Close()
}

// Mux returns the node's full route set: the service's API and
// observability surfaces plus the cluster fabric.
func (n *Node) Mux() *http.ServeMux {
	mux := n.svc.Mux()
	mux.HandleFunc("/fabric/freeze", verb(n.freeze))
	mux.HandleFunc("/fabric/resume", verb(n.resume))
	mux.HandleFunc("/fabric/commit", verb(n.commit))
	mux.HandleFunc("/fabric/discard", verb(n.discard))
	mux.HandleFunc("/fabric/pull", verb(n.pull))
	mux.HandleFunc("/fabric/replica/start", verb(n.replicaStart))
	mux.HandleFunc("/fabric/replica/promote", verb(n.replicaPromote))
	// A coordinator's table push.
	mux.HandleFunc("/fabric/table", verb(func(_ *http.Request, t fsproto.ClusterTable) (any, error) {
		n.ApplyTable(t)
		return nil, nil
	}))
	return mux
}

// freeze quiesces a shard for migration, parks the hold and answers where
// the shard froze (server.Frozen). The shard itself arbitrates concurrent
// freezes: exactly one takes it.
func (n *Node) freeze(r *http.Request, req shardReq) (any, error) {
	mig, err := n.svc.FreezeShard(r.Context(), req.Shard)
	if errors.Is(err, server.ErrHeld) {
		return nil, statusError{http.StatusConflict, fmt.Errorf("shard %d already frozen", req.Shard)}
	}
	if err != nil {
		return nil, err
	}
	n.mu.Lock()
	n.migs[req.Shard] = mig
	n.mu.Unlock()
	return mig.At, nil
}

func (n *Node) takeMig(shard int) *server.Migration {
	n.mu.Lock()
	defer n.mu.Unlock()
	m := n.migs[shard]
	delete(n.migs, shard)
	return m
}

// resume rolls a migration back: the hold releases, and the shard serves the
// backlog that waited as if nothing happened.
func (n *Node) resume(_ *http.Request, req shardReq) (any, error) {
	if mig := n.takeMig(req.Shard); mig != nil {
		mig.Resume()
	}
	return nil, nil
}

// commit finishes a migration on the source: the shard retires at the new
// epoch and queued requests answer with the routing error.
func (n *Node) commit(_ *http.Request, req shardReq) (any, error) {
	mig := n.takeMig(req.Shard)
	if mig == nil {
		return nil, statusError{http.StatusConflict, fmt.Errorf("shard %d is not frozen", req.Shard)}
	}
	mig.Commit(req.Epoch)
	return nil, nil
}

// discard undoes what a rolled-back migration left on its target: the
// replica it started there, and the shard if that replica was promoted.
func (n *Node) discard(_ *http.Request, req shardReq) (any, error) {
	n.dropReplica(req.Shard)
	n.svc.DropShard(req.Shard)
	return nil, nil
}

// pull ships the encoded admission-log records from a position onward —
// the replication stream.
func (n *Node) pull(r *http.Request, req shardReq) (any, error) {
	return n.svc.RecordsFrom(r.Context(), req.Shard, req.From)
}

// replicaStart makes this node a replica of a shard and answers once it has
// caught up with its primary.
func (n *Node) replicaStart(_ *http.Request, req shardReq) (any, error) {
	_, err := n.StartReplica(req.Shard, req.Source)
	return nil, err
}

// replicaPromote turns a clean replica into the serving owner: at a
// migration's freeze point when the request carries one.
func (n *Node) replicaPromote(_ *http.Request, req shardReq) (any, error) {
	return nil, n.PromoteReplica(req.Shard, req.Frozen)
}

// ApplyTable installs a placement table, newer epochs only: the node
// publishes the new epoch and forwards misrouted requests one hop to
// current owners.
func (n *Node) ApplyTable(t fsproto.ClusterTable) {
	n.mu.Lock()
	if t.Epoch < n.table.Epoch {
		n.mu.Unlock()
		return
	}
	n.table = t
	// A replica follows its shard's owner: after a migration or a failover
	// the old one answers pulls with the routing error. The new owner's log
	// continues the old one position for position (replay appends every
	// record it applies), so the replica pulls on from where it stopped.
	for shard, rep := range n.reps {
		if owner, ok := t.Owner(shard); ok {
			rep.setSource(owner)
		}
	}
	n.mu.Unlock()
	n.svc.SetClusterEpoch(t.Epoch)
	n.svc.SetForwarder(func(shard int) (string, bool) {
		n.mu.Lock()
		owner, ok := n.table.Owner(shard)
		base := n.base
		n.mu.Unlock()
		if !ok || owner == base {
			return "", false
		}
		return owner, true
	})
}

// StartReplica makes this node a replica of shard, replaying the primary at
// source, and returns once one synchronous pull has caught it up. A replica
// of the shard already here is reused, pointed at source; a new one that
// cannot catch up is dropped again.
func (n *Node) StartReplica(shard int, source string) (*Replica, error) {
	rep, fresh := n.Replica(shard), false
	if rep == nil {
		var err error
		if rep, err = NewReplica(n.svc, shard, source); err != nil {
			return nil, err
		}
		n.mu.Lock()
		if n.reps[shard] != nil {
			n.mu.Unlock()
			return nil, fmt.Errorf("cluster: already replicating shard %d", shard)
		}
		n.reps[shard] = rep
		n.mu.Unlock()
		rep.Start(2 * time.Millisecond)
		fresh = true
	} else {
		rep.setSource(source)
	}
	if err := rep.Sync(); err != nil {
		if fresh {
			n.dropReplica(shard)
		}
		return nil, fmt.Errorf("cluster: replica of shard %d catching up with %s: %w", shard, source, err)
	}
	return rep, nil
}

// dropReplica stops and forgets the replica of shard, if any.
func (n *Node) dropReplica(shard int) {
	n.mu.Lock()
	rep := n.reps[shard]
	delete(n.reps, shard)
	n.mu.Unlock()
	if rep != nil {
		rep.Stop()
	}
}

// Replica returns the node's replica of shard, if any.
func (n *Node) Replica(shard int) *Replica {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.reps[shard]
}

// PromoteReplica adopts the replica of shard as its owner (Replica.Promote;
// at is nil in a failover). A refused replica stays listed here, so the
// rollback that follows finds it. The new epoch arrives with the
// coordinator's table push.
func (n *Node) PromoteReplica(shard int, at *server.Frozen) error {
	rep := n.Replica(shard)
	if rep == nil {
		return statusError{http.StatusNotFound, fmt.Errorf("no replica of shard %d here", shard)}
	}
	if err := rep.Promote(at); err != nil {
		return err
	}
	n.mu.Lock()
	delete(n.reps, shard)
	n.mu.Unlock()
	return nil
}
