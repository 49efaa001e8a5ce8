package fsclient

// Cluster-aware client: routes through the coordinator's placement table
// instead of a fixed base URL. The client computes its tenant's home
// shard with the same ShardIndex the servers use, dials the owning node,
// and re-fetches the table whenever a node answers with an epoch mismatch
// (the shard migrated) or stops answering at all (the node died and a
// replica was promoted). Cross-tenant operations still go to the home
// node — owners forward one hop inside the fabric — so one route per
// session is all the client ever needs.

import (
	"fmt"
	"net/http"
	"sync"
	"time"

	"fsencr/internal/fsproto"
)

// ClusterClient is one tenant session against a multi-node cluster.
type ClusterClient struct {
	*Client

	coord string
	// hc fetches the placement table (fsproto.Control): a cold control-plane
	// GET, left on net/http, one connection per fetch so nothing idles
	// behind a session.
	hc *http.Client

	mu    sync.Mutex
	table fsproto.ClusterTable
	home  int // the session tenant's global shard, -1 before Login
}

// DialCluster fetches the placement table from the coordinator and returns
// a routing client. Call Login next; routes resolve per tenant.
func DialCluster(coord string) (*ClusterClient, error) {
	cc := &ClusterClient{
		coord: coord,
		hc:    &http.Client{Timeout: 10 * time.Second, Transport: &http.Transport{DisableKeepAlives: true}},
		home:  -1,
	}
	if err := cc.refresh(); err != nil {
		return nil, err
	}
	return cc, nil
}

// Close drops the session's connection (there is none to the coordinator
// between table fetches).
func (cc *ClusterClient) Close() {
	if cc.Client != nil {
		cc.Client.Close()
	}
}

// Table returns the most recently fetched placement table.
func (cc *ClusterClient) Table() fsproto.ClusterTable {
	cc.mu.Lock()
	defer cc.mu.Unlock()
	return cc.table
}

// refresh re-fetches the placement table from the coordinator.
func (cc *ClusterClient) refresh() error {
	var t fsproto.ClusterTable
	if err := fsproto.ControlJSON(cc.hc, cc.coord+"/cluster/table", nil, &t); err != nil {
		return err
	}
	cc.mu.Lock()
	if t.Epoch >= cc.table.Epoch {
		cc.table = t
	}
	cc.mu.Unlock()
	return nil
}

// homeBase resolves the current owner of the session's home shard.
func (cc *ClusterClient) homeBase() (string, bool) {
	cc.mu.Lock()
	defer cc.mu.Unlock()
	if cc.home < 0 {
		return "", false
	}
	return cc.table.Owner(cc.home)
}

// reroute is the embedded client's routing-refresh hook: re-fetch the
// table and hand back the (possibly new) home-shard owner.
func (cc *ClusterClient) reroute() (string, bool) {
	if err := cc.refresh(); err != nil {
		return "", false
	}
	return cc.homeBase()
}

// Login resolves the tenant's home shard, dials its owner, and opens the
// session there. A default retry policy is installed, so the client rides
// out migrations; override with SetRetry.
func (cc *ClusterClient) Login(tenant string, uid uint32, passphrase string) error {
	gid := fsproto.TenantGID(tenant)
	cc.mu.Lock()
	cc.home = fsproto.ShardIndex(gid, cc.table.NShards)
	cc.mu.Unlock()
	base, ok := cc.homeBase()
	if !ok {
		if err := cc.refresh(); err != nil {
			return err
		}
		if base, ok = cc.homeBase(); !ok {
			return fmt.Errorf("fsclient: shard %d has no owner in placement table (epoch %d)", cc.home, cc.Table().Epoch)
		}
	}
	cc.Close()
	cc.Client = Dial(base)
	cc.Client.SetRerouter(cc.reroute)
	cc.Client.SetRetry(RetryPolicy{Max: 8})
	return cc.Client.Login(tenant, uid, passphrase)
}
