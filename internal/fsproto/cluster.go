package fsproto

// Cluster routing plane wire types: the coordinator's placement table (the
// admission log that migration and replication replay is log.go).
//
// The placement table turns ShardIndex from an in-process array index into
// a cluster-wide contract: gid maps onto one of NShards *global* shard
// slots, and the table names the node currently owning each slot. Epochs
// are the fencing tokens: every ownership change bumps the placement's
// epoch (and the table epoch), so a router holding an old table can detect
// staleness the moment a node answers CodeEpochMismatch.

// Placement is one shard's current home.
type Placement struct {
	// Shard is the global shard index in [0, NShards).
	Shard int `json:"shard"`
	// Node is the owning node's base URL ("http://10.0.0.2:9144").
	Node string `json:"node"`
	// Epoch counts ownership changes of this shard; 0 means unplaced.
	Epoch uint64 `json:"epoch"`
	// Replicas are base URLs of nodes replaying this shard's admission log.
	Replicas []string `json:"replicas,omitempty"`
}

// ClusterTable is the coordinator-owned routing table.
type ClusterTable struct {
	// Epoch is the table version: bumped on every placement change, so
	// routers can order tables without comparing contents.
	Epoch uint64 `json:"epoch"`
	// NShards is the global shard count — the modulus every router must
	// use with ShardIndex. It never changes for the life of a cluster
	// (changing it reshuffles nearly every gid; see TestShardIndexReshuffle).
	NShards int `json:"n_shards"`
	// Placements is indexed by shard.
	Placements []Placement `json:"placements"`
}

// Owner returns the base URL of the node owning shard, if placed.
func (t *ClusterTable) Owner(shard int) (string, bool) {
	if shard < 0 || shard >= len(t.Placements) {
		return "", false
	}
	p := t.Placements[shard]
	if p.Epoch == 0 || p.Node == "" {
		return "", false
	}
	return p.Node, true
}
