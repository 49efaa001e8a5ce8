package cluster

import (
	"fmt"
	"net/http"
	"slices"
	"sync"
	"time"

	"fsencr/internal/fsproto"
	"fsencr/internal/server"
)

// Migration persist points, in order. The coordinator calls its StepHook
// (when set) after each one — the chaos campaign kills the source or the
// target node exactly there and asserts the fabric either completes the
// migration or rolls it back cleanly, with no split-brain.
const (
	StepAfterCatchUp = "after-catch-up"
	StepAfterFreeze  = "after-freeze"
	StepAfterPromote = "after-promote"
	StepAfterCommit  = "after-commit"
)

// MigrationSteps lists the persist points in order (chaos campaigns
// iterate them).
var MigrationSteps = []string{StepAfterCatchUp, StepAfterFreeze, StepAfterPromote, StepAfterCommit}

// Coordinator owns the placement table and orchestrates ownership
// changes. One per cluster; nodes join it, clients fetch routes from it.
type Coordinator struct {
	nShards int
	hc      *http.Client

	// StepHook, when set, runs after each migration persist point with the
	// step name and the migrating shard. Chaos tests use it to kill nodes
	// mid-migration; it must be set before any Migrate call.
	StepHook func(step string, shard int)

	mu      sync.Mutex
	table   fsproto.ClusterTable
	members []string
}

// NewCoordinator creates the routing authority for a fixed global shard
// count (the ShardIndex modulus; it never changes for the cluster's life).
func NewCoordinator(nShards int) *Coordinator {
	return &Coordinator{
		nShards: nShards,
		hc:      &http.Client{Timeout: 30 * time.Second},
		table: fsproto.ClusterTable{
			NShards:    nShards,
			Placements: make([]fsproto.Placement, nShards),
		},
	}
}

// Mux returns the coordinator's route set.
func (c *Coordinator) Mux() *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/cluster/join", verb(func(_ *http.Request, req joinReq) (any, error) {
		return c.Join(req.Node, req.Empty)
	}))
	mux.HandleFunc("/cluster/migrate", verb(func(_ *http.Request, req moveReq) (any, error) {
		return c.tableAfter(c.Migrate(req.Shard, req.To))
	}))
	mux.HandleFunc("/cluster/replicate", verb(func(_ *http.Request, req moveReq) (any, error) {
		return c.tableAfter(c.Replicate(req.Shard, req.On))
	}))
	mux.HandleFunc("/cluster/table", func(w http.ResponseWriter, _ *http.Request) { writeJSON(w, c.Table()) })
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, _ *http.Request) { writeJSON(w, struct{}{}) })
	return mux
}

// tableAfter answers a table change: the new table, unless it failed.
func (c *Coordinator) tableAfter(err error) (any, error) {
	if err != nil {
		return nil, err
	}
	return c.Table(), nil
}

// Table returns a copy of the current placement table.
func (c *Coordinator) Table() fsproto.ClusterTable {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.snapshotLocked()
}

func (c *Coordinator) snapshotLocked() fsproto.ClusterTable {
	t := c.table
	t.Placements = make([]fsproto.Placement, len(c.table.Placements))
	copy(t.Placements, c.table.Placements)
	for i := range t.Placements {
		t.Placements[i].Replicas = append([]string(nil), c.table.Placements[i].Replicas...)
	}
	return t
}

type joinReq struct {
	Node string `json:"node"`
	// Empty marks a joiner that booted owning no shards (it receives them
	// by migration) — it can never seed the placement table.
	Empty bool `json:"empty"`
}

// moveReq asks for a shard to move to node To (/cluster/migrate) or to be
// replicated on node On (/cluster/replicate).
type moveReq struct {
	Shard int    `json:"shard"`
	To    string `json:"to"`
	On    string `json:"on"`
}

// Join admits a node. The first non-empty joiner (which boots owning
// every shard, the default server configuration) seeds the placement
// table as the owner of all of them at epoch 1; empty joiners (booted
// with OwnedShards: [], -empty on the CLI) are members only and receive
// shards by migration. A second non-empty joiner is refused — two nodes
// that both locally own every shard is split-brain by construction —
// unless the table already places shards on it (a rejoin after restart).
// The new table is pushed to every member and returned.
func (c *Coordinator) Join(node string, empty bool) (fsproto.ClusterTable, error) {
	if node == "" {
		return fsproto.ClusterTable{}, statusError{http.StatusBadRequest, fmt.Errorf("cluster: join needs a node base URL")}
	}
	c.mu.Lock()
	if !empty && c.table.Epoch > 0 {
		rejoin := false
		for _, p := range c.table.Placements {
			if p.Node == node {
				rejoin = true
			}
		}
		if !rejoin {
			c.mu.Unlock()
			return fsproto.ClusterTable{}, statusError{http.StatusConflict, fmt.Errorf(
				"cluster: placement already seeded; boot %s with no owned shards (-empty)", node)}
		}
	}
	dup := false
	for _, m := range c.members {
		if m == node {
			dup = true
		}
	}
	if !dup {
		c.members = append(c.members, node)
	}
	if !empty && c.table.Epoch == 0 {
		c.table.Epoch = 1
		for i := range c.table.Placements {
			c.table.Placements[i] = fsproto.Placement{Shard: i, Node: node, Epoch: 1}
		}
	}
	t := c.snapshotLocked()
	c.mu.Unlock()
	c.push(t)
	return t, nil
}

// push sends the table to every member (best effort: a member that just
// died learns the epoch when it rejoins).
func (c *Coordinator) push(t fsproto.ClusterTable) {
	c.mu.Lock()
	members := append([]string(nil), c.members...)
	c.mu.Unlock()
	for _, m := range members {
		_ = fsproto.ControlJSON(c.hc, m+"/fabric/table", t, nil)
	}
}

func (c *Coordinator) step(name string, shard int) {
	if c.StepHook != nil {
		c.StepHook(name, shard)
	}
}

// owner returns the current owner of shard.
func (c *Coordinator) owner(shard int) (string, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if shard < 0 || shard >= len(c.table.Placements) {
		return "", statusError{http.StatusBadRequest, fmt.Errorf("cluster: shard %d out of range [0,%d)", shard, len(c.table.Placements))}
	}
	p := c.table.Placements[shard]
	if p.Epoch == 0 || p.Node == "" {
		return "", statusError{http.StatusBadRequest, fmt.Errorf("cluster: shard %d is unplaced", shard)}
	}
	return p.Node, nil
}

// Migrate moves shard live from its current owner to node `to` by
// promoting a replica there:
//
//  1. catch up: `to` becomes a replica of the shard (one already listed
//     there is reused) and answers once it has caught up with the log;
//  2. freeze: the source holds the shard, folds a flush and a checkpoint
//     into the log, and answers where it froze — the log length and the
//     digest of its module image;
//  3. promote: `to` pulls exactly that log, must reproduce the digest and
//     pass the Osiris recovery gate (server.PromoteShard), and adopts the
//     shard;
//  4. the epoch bumps — published only after the target proved the state;
//  5. commit: the source's shard retires at the new epoch.
//
// Failure handling keeps exactly one serving owner at every point. Any
// failure before the bump rolls back: the source resumes, the table stays,
// and the target is left as it was — a replica this migration started is
// discarded, a listed one keeps replicating. That includes a source that
// dies after the freeze: the replica can no longer reach the frozen log. A
// source that dies after the promotion completes the migration: a dead
// source cannot serve, so the cutover loses nothing and split-brain is
// impossible.
func (c *Coordinator) Migrate(shard int, to string) error {
	src, err := c.owner(shard)
	if err != nil {
		return err
	}
	if src == to {
		return statusError{http.StatusConflict, fmt.Errorf("cluster: shard %d already lives on %s", shard, to)}
	}
	listed := c.isReplica(shard, to)
	start := shardReq{Shard: shard, Source: src}
	// undo leaves the target as it was: without the shard, and a replica
	// only if it was listed before.
	undo := func(promoted bool) {
		if promoted || !listed {
			_ = fsproto.ControlJSON(c.hc, to+"/fabric/discard", shardReq{Shard: shard}, nil)
		}
		if promoted && listed {
			_ = fsproto.ControlJSON(c.hc, to+"/fabric/replica/start", start, nil)
		}
	}
	if err := fsproto.ControlJSON(c.hc, to+"/fabric/replica/start", start, nil); err != nil {
		return fmt.Errorf("catch-up on %s: %w", to, err)
	}
	c.step(StepAfterCatchUp, shard)

	at := new(server.Frozen)
	if err := fsproto.ControlJSON(c.hc, src+"/fabric/freeze", shardReq{Shard: shard}, at); err != nil {
		// Not resumed: a refused freeze (409) is another migration's hold.
		undo(false)
		return fmt.Errorf("freeze on %s: %w", src, err)
	}
	c.step(StepAfterFreeze, shard)

	resume := func() { _ = fsproto.ControlJSON(c.hc, src+"/fabric/resume", shardReq{Shard: shard}, nil) }
	if err := fsproto.ControlJSON(c.hc, to+"/fabric/replica/promote", shardReq{Shard: shard, Frozen: at}, nil); err != nil {
		resume()
		undo(false)
		return fmt.Errorf("promote on %s: %w", to, err)
	}
	c.step(StepAfterPromote, shard)

	// Point of no return is the table bump; require a live target first.
	if !healthy(c.hc, to) {
		resume()
		undo(true)
		return fmt.Errorf("cluster: target %s unhealthy after promotion; rolled back", to)
	}
	c.mu.Lock()
	c.table.Epoch++
	epoch := c.table.Epoch
	c.table.Placements[shard] = fsproto.Placement{Shard: shard, Node: to, Epoch: epoch,
		Replicas: without(c.table.Placements[shard].Replicas, to)}
	t := c.snapshotLocked()
	c.mu.Unlock()

	// Retire the source. A dead source is fine — it cannot serve, so the
	// cutover is safe regardless.
	_ = fsproto.ControlJSON(c.hc, src+"/fabric/commit", shardReq{Shard: shard, Epoch: epoch}, nil)
	c.push(t)
	c.step(StepAfterCommit, shard)
	return nil
}

// isReplica reports whether the table lists node as a replica of shard.
func (c *Coordinator) isReplica(shard int, node string) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return slices.Contains(c.table.Placements[shard].Replicas, node)
}

// without returns nodes minus node, as a new slice.
func without(nodes []string, node string) []string {
	out := make([]string, 0, len(nodes))
	for _, n := range nodes {
		if n != node {
			out = append(out, n)
		}
	}
	return out
}

// Replicate starts an admission-log replica of shard on node `on` and
// records it in the table.
func (c *Coordinator) Replicate(shard int, on string) error {
	src, err := c.owner(shard)
	if err != nil {
		return err
	}
	if src == on {
		return statusError{http.StatusConflict, fmt.Errorf("cluster: %s already owns shard %d", on, shard)}
	}
	if err := fsproto.ControlJSON(c.hc, on+"/fabric/replica/start", shardReq{Shard: shard, Source: src}, nil); err != nil {
		return err
	}
	c.mu.Lock()
	if p := &c.table.Placements[shard]; !slices.Contains(p.Replicas, on) {
		p.Replicas = append(p.Replicas, on)
	}
	t := c.snapshotLocked()
	c.mu.Unlock()
	c.push(t)
	return nil
}

// Failover promotes a replica of shard to owner — the recovery path when
// the owner died. The first healthy replica wins; the table bumps to a
// new epoch and is pushed to the surviving members.
func (c *Coordinator) Failover(shard int) error {
	c.mu.Lock()
	if shard < 0 || shard >= len(c.table.Placements) {
		c.mu.Unlock()
		return fmt.Errorf("cluster: shard %d out of range", shard)
	}
	p := c.table.Placements[shard]
	c.mu.Unlock()
	if healthy(c.hc, p.Node) {
		return fmt.Errorf("cluster: owner %s of shard %d is alive; failover refused", p.Node, shard)
	}
	for _, rep := range p.Replicas {
		if !healthy(c.hc, rep) {
			continue
		}
		if err := fsproto.ControlJSON(c.hc, rep+"/fabric/replica/promote", shardReq{Shard: shard}, nil); err != nil {
			return fmt.Errorf("promote on %s: %w", rep, err)
		}
		c.mu.Lock()
		c.table.Epoch++
		c.table.Placements[shard] = fsproto.Placement{Shard: shard, Node: rep, Epoch: c.table.Epoch,
			Replicas: without(p.Replicas, rep)}
		t := c.snapshotLocked()
		c.mu.Unlock()
		c.push(t)
		return nil
	}
	return fmt.Errorf("cluster: shard %d has no healthy replica to promote", shard)
}

// CheckOwners pings every owner once and fails over shards whose owner is
// dead and which have a replica. Returns the shards failed over. Callers
// run it from their own health-check cadence.
func (c *Coordinator) CheckOwners() []int {
	t := c.Table()
	var moved []int
	for _, p := range t.Placements {
		if p.Epoch == 0 || healthy(c.hc, p.Node) || len(p.Replicas) == 0 {
			continue
		}
		if err := c.Failover(p.Shard); err == nil {
			moved = append(moved, p.Shard)
		}
	}
	return moved
}
