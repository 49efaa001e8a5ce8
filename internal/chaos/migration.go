package chaos

import (
	"bytes"
	"context"
	"fmt"
	"net"
	"net/http"
	"strings"
	"time"

	"fsencr/internal/cluster"
	"fsencr/internal/fsproto"
	"fsencr/internal/kernel"
	"fsencr/internal/memctrl"
	"fsencr/internal/server"
)

// CampaignMigrationCrash is the cluster-level fault campaign: a two-node
// fabric loses the migration source or the migration target at every
// persist point of a live shard migration. The invariant under test is
// the coordinator's contract — at every crash point the migration either
// completes (the target proves the replayed state and owns the shard) or
// rolls back cleanly (the source resumes serving), there is never a
// moment with two live owners (split-brain), and acknowledged data
// survives on whichever owner is alive.
const CampaignMigrationCrash = "node-crash-during-migration"

// migrationVictims enumerates which node the campaign kills.
var migrationVictims = []string{"source", "target"}

// migrationOutcomes maps (step, victim) to the contractually required
// result. A dead source after the target's promotion cannot serve, so
// completing is safe; a dead source before it leaves the replica short of
// the frozen log, and a dead target before the epoch bump cannot take the
// shard — both roll back; a dead target after the bump leaves the shard on
// the (dead) owner — unavailable until failover, but never split-brained.
var migrationOutcomes = map[[2]string]string{
	{cluster.StepAfterCatchUp, "source"}: "rolled-back",
	{cluster.StepAfterFreeze, "source"}:  "rolled-back",
	{cluster.StepAfterPromote, "source"}: "completed",
	{cluster.StepAfterCommit, "source"}:  "completed",
	{cluster.StepAfterCatchUp, "target"}: "rolled-back",
	{cluster.StepAfterFreeze, "target"}:  "rolled-back",
	{cluster.StepAfterPromote, "target"}: "rolled-back",
	{cluster.StepAfterCommit, "target"}:  "completed",
}

// MigrationCrashCase is one (persist point, victim) experiment.
type MigrationCrashCase struct {
	Step       string `json:"step"`
	Victim     string `json:"victim"`
	Outcome    string `json:"outcome"`  // completed | rolled-back
	Expected   string `json:"expected"` // contractually required outcome
	OwnerAlive bool   `json:"owner_alive"`
	DataIntact bool   `json:"data_intact"` // seeded bytes readable on the live owner
	SplitBrain bool   `json:"split_brain"` // a live non-owner still answers for the shard
	// Residue: a rollback left a replica of the shard on the live target,
	// which had none before the migration.
	Residue bool   `json:"residue"`
	Err     string `json:"err,omitempty"`
}

// ok reports whether the case satisfied the migration contract.
func (c MigrationCrashCase) ok() bool {
	if c.Outcome != c.Expected || c.SplitBrain || c.Residue {
		return false
	}
	if c.OwnerAlive && !c.DataIntact {
		return false
	}
	return true
}

// MigrationCrashResult aggregates the campaign.
type MigrationCrashResult struct {
	Cases []MigrationCrashCase `json:"cases"`
}

// Clean reports whether every crash point upheld the contract.
func (r *MigrationCrashResult) Clean() bool {
	if len(r.Cases) != len(cluster.MigrationSteps)*len(migrationVictims) {
		return false
	}
	for _, c := range r.Cases {
		if !c.ok() {
			return false
		}
	}
	return true
}

// String renders the campaign verdict table.
func (r *MigrationCrashResult) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "migration-crash campaign: %d crash points\n", len(r.Cases))
	for _, c := range r.Cases {
		owner := "alive"
		if !c.OwnerAlive {
			owner = "dead"
		}
		data := "-"
		if c.OwnerAlive {
			data = fmt.Sprintf("%v", c.DataIntact)
		}
		verdict := "OK"
		if !c.ok() {
			verdict = "VIOLATION"
		}
		fmt.Fprintf(&b, "  %-14s victim=%-6s -> %-11s (want %-11s) owner=%-5s data=%-5s split-brain=%-5v residue=%-5v  %s\n",
			c.Step, c.Victim, c.Outcome, c.Expected, owner, data, c.SplitBrain, c.Residue, verdict)
	}
	if r.Clean() {
		b.WriteString("  every crash point completed or rolled back cleanly; no split-brain, no residue\n")
	}
	return b.String()
}

// fabricNode is one in-process fsencrd node on a real loopback listener.
type fabricNode struct {
	node *cluster.Node
	srv  *http.Server
	base string
	dead bool
}

const migNShards = 2

func startFabricNode(owned []int, prefix string) (*fabricNode, error) {
	svc := server.New(server.Options{
		Shards:          migNShards,
		ClusterShards:   migNShards,
		OwnedShards:     owned,
		MCMode:          memctrl.Mode{MemEncryption: true, FileEncryption: true},
		Access:          kernel.ModeDAX,
		AdmissionLog:    true,
		ChipSeqBase:     server.DefaultChipSeqBase,
		CheckpointEvery: 8,
		TokenPrefix:     prefix,
		RequestTimeout:  10 * time.Second,
	})
	n := cluster.NewNode(svc)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		svc.Close()
		return nil, err
	}
	fn := &fabricNode{
		node: n,
		srv:  &http.Server{Handler: n.Mux()},
		base: "http://" + ln.Addr().String(),
	}
	n.SetBase(fn.base)
	go fn.srv.Serve(ln)
	return fn, nil
}

// kill drops the listener without waiting for in-flight work, then tears
// the process state down — the closest a single-process harness gets to
// SIGKILL at a persist point.
func (fn *fabricNode) kill() {
	if fn.dead {
		return
	}
	fn.dead = true
	fn.srv.Close()
	fn.node.Close()
}

// migrationTenant returns a tenant name homed on the given global shard.
func migrationTenant(shard int) (string, error) {
	for _, n := range []string{"acme", "globex", "initech", "umbrella", "wayne", "stark", "hooli"} {
		if fsproto.ShardIndex(fsproto.TenantGID(n), migNShards) == shard {
			return n, nil
		}
	}
	return "", fmt.Errorf("chaos: no tenant name maps to shard %d", shard)
}

// RunMigrationCrash executes the node-crash-during-migration campaign:
// for every persist point x victim, a fresh two-node cluster, a seeded
// shard, one migration with the victim killed exactly at that point, and
// a post-mortem of the placement table against the contract.
func RunMigrationCrash() (*MigrationCrashResult, error) {
	res := &MigrationCrashResult{}
	for _, step := range cluster.MigrationSteps {
		for _, victim := range migrationVictims {
			c, err := runMigrationCrashCase(step, victim)
			if err != nil {
				return nil, fmt.Errorf("chaos: %s/%s: %w", step, victim, err)
			}
			res.Cases = append(res.Cases, c)
		}
	}
	return res, nil
}

func runMigrationCrashCase(step, victim string) (MigrationCrashCase, error) {
	c := MigrationCrashCase{Step: step, Victim: victim, Expected: migrationOutcomes[[2]string{step, victim}]}
	src, err := startFabricNode(nil, "s")
	if err != nil {
		return c, err
	}
	defer src.kill()
	tgt, err := startFabricNode([]int{}, "t")
	if err != nil {
		return c, err
	}
	defer tgt.kill()
	coord := cluster.NewCoordinator(migNShards)
	if _, err := coord.Join(src.base, false); err != nil {
		return c, err
	}
	if _, err := coord.Join(tgt.base, true); err != nil {
		return c, err
	}

	// Seed acknowledged state on the shard under migration.
	const shard = 1
	tenant, err := migrationTenant(shard)
	if err != nil {
		return c, err
	}
	ctx := context.Background()
	seeded := bytes.Repeat([]byte{0x5a}, 512)
	sess, err := src.node.Service().Login(ctx, tenant, 1, "pw-"+tenant, 0)
	if err != nil {
		return c, err
	}
	if err := src.node.Service().Create(ctx, sess, fsproto.CreateRequest{
		Name: "seed.bin", Perm: 0600, Size: 4096, Encrypted: true,
	}); err != nil {
		return c, err
	}
	if err := src.node.Service().Write(ctx, sess, fsproto.WriteRequest{Name: "seed.bin", Data: seeded}); err != nil {
		return c, err
	}

	coord.StepHook = func(s string, _ int) {
		if s != step {
			return
		}
		if victim == "source" {
			src.kill()
		} else {
			tgt.kill()
		}
	}
	migErr := coord.Migrate(shard, tgt.base)
	if migErr != nil {
		c.Err = migErr.Error()
	}

	tbl := coord.Table()
	owner, _ := tbl.Owner(shard)
	ownerNode, otherNode := src, tgt
	if owner == tgt.base {
		c.Outcome = "completed"
		ownerNode, otherNode = tgt, src
	} else {
		c.Outcome = "rolled-back"
	}
	// A migration that returned an error must not have moved the table.
	if migErr != nil && c.Outcome == "completed" {
		return c, fmt.Errorf("migration errored (%v) but the table cut over", migErr)
	}
	c.OwnerAlive = !ownerNode.dead
	c.Residue = c.Outcome == "rolled-back" && !tgt.dead && tgt.node.Replica(shard) != nil

	// Split-brain probe: a live non-owner must refuse the shard.
	if !otherNode.dead {
		if _, err := otherNode.node.Service().LogLen(ctx, shard); err == nil {
			c.SplitBrain = true
		}
	}
	// Data probe: the live owner still serves every acknowledged byte.
	if c.OwnerAlive {
		svc := ownerNode.node.Service()
		s2, err := svc.Login(ctx, tenant, 1, "pw-"+tenant, 0)
		if err != nil {
			return c, fmt.Errorf("post-crash login on owner: %w", err)
		}
		pl, err := svc.Read(ctx, s2, fsproto.ReadRequest{Name: "seed.bin", Length: 512})
		if err != nil {
			return c, fmt.Errorf("post-crash read on owner: %w", err)
		}
		c.DataIntact = bytes.Equal(pl.Data, seeded)
		pl.Release()
	}
	return c, nil
}
