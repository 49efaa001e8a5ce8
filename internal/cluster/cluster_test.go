package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"fsencr/internal/fsclient"
	"fsencr/internal/fsproto"
	"fsencr/internal/kernel"
	"fsencr/internal/memctrl"
	"fsencr/internal/server"
)

const testShards = 4

// testNode is one in-process fsencrd node behind a real HTTP listener.
type testNode struct {
	node  *Node
	srv   *httptest.Server
	empty bool
	dead  bool
}

func startNode(t *testing.T, owned []int, prefix string) *testNode {
	t.Helper()
	svc := server.New(server.Options{
		Shards:          testShards,
		ClusterShards:   testShards,
		OwnedShards:     owned,
		MCMode:          memctrl.Mode{MemEncryption: true, FileEncryption: true},
		Access:          kernel.ModeDAX,
		AdmissionLog:    true,
		ChipSeqBase:     server.DefaultChipSeqBase,
		CheckpointEvery: 8,
		TokenPrefix:     prefix,
		RequestTimeout:  20 * time.Second,
	})
	n := NewNode(svc)
	srv := httptest.NewServer(n.Mux())
	n.SetBase(srv.URL)
	tn := &testNode{node: n, srv: srv, empty: owned != nil && len(owned) == 0}
	t.Cleanup(tn.shutdown)
	return tn
}

// shutdown is the orderly test-cleanup path.
func (tn *testNode) shutdown() {
	if tn.dead {
		return
	}
	tn.dead = true
	tn.srv.Close()
	tn.node.Close()
}

// kill simulates a node crash: the listener drops without waiting for
// in-flight work, then the process state is torn down.
func (tn *testNode) kill() {
	if tn.dead {
		return
	}
	tn.dead = true
	tn.srv.Listener.Close()
	tn.srv.CloseClientConnections()
	tn.node.Close()
}

func startCoordinator(t *testing.T) (*Coordinator, *httptest.Server) {
	t.Helper()
	coord := NewCoordinator(testShards)
	srv := httptest.NewServer(coord.Mux())
	t.Cleanup(srv.Close)
	return coord, srv
}

// tenantOn finds an unused tenant name homed on the wanted global shard.
func tenantOn(t *testing.T, want int, taken map[string]bool) string {
	t.Helper()
	names := []string{"acme", "globex", "initech", "umbrella", "wayne", "stark",
		"hooli", "soylent", "tyrell", "wonka", "aperture", "cyberdyne", "octan", "zorg"}
	for _, n := range names {
		if !taken[n] && fsproto.ShardIndex(fsproto.TenantGID(n), testShards) == want {
			taken[n] = true
			return n
		}
	}
	t.Fatalf("no tenant name hashes onto shard %d", want)
	return ""
}

// TestJoinPlacesFirstNode: the first joiner owns everything at epoch 1;
// later joiners are empty members.
func TestJoinPlacesFirstNode(t *testing.T) {
	coord, _ := startCoordinator(t)
	a := startNode(t, nil, "a")
	b := startNode(t, []int{}, "b")
	tbl, err := coord.Join(a.srv.URL, false)
	if err != nil {
		t.Fatalf("join a: %v", err)
	}
	if tbl.Epoch != 1 {
		t.Fatalf("first join epoch = %d, want 1", tbl.Epoch)
	}
	for i := 0; i < testShards; i++ {
		if owner, ok := tbl.Owner(i); !ok || owner != a.srv.URL {
			t.Fatalf("shard %d owner = %q, want %q", i, owner, a.srv.URL)
		}
	}
	if _, err := coord.Join(b.srv.URL, true); err != nil {
		t.Fatalf("join b: %v", err)
	}
	if got := coord.Table().Epoch; got != 1 {
		t.Fatalf("second join must not bump the epoch, got %d", got)
	}
	// The push propagated the epoch to the nodes.
	if e := a.node.Service().ClusterEpoch(); e != 1 {
		t.Fatalf("node a cluster epoch = %d, want 1", e)
	}
	// A second non-empty joiner would split-brain every shard: refused.
	if _, err := coord.Join("http://127.0.0.1:1", false); err == nil {
		t.Fatal("second non-empty join must be refused")
	}
}

// TestMigrationUnderLoad is the heart of the fabric: three nodes, live
// client traffic, one shard migrated mid-load. Zero requests may be
// dropped or duplicated, the target must serve the migrated sessions with
// their old tokens, and cross-shard requests hitting the stale owner must
// forward.
func TestMigrationUnderLoad(t *testing.T) {
	coord, csrv := startCoordinator(t)
	a := startNode(t, nil, "a")
	b := startNode(t, []int{}, "b")
	c := startNode(t, []int{}, "c")
	for _, n := range []*testNode{a, b, c} {
		if _, err := coord.Join(n.srv.URL, n.empty); err != nil {
			t.Fatalf("join: %v", err)
		}
	}
	taken := map[string]bool{}
	migShard := 2
	tenants := []string{tenantOn(t, migShard, taken), tenantOn(t, 0, taken), tenantOn(t, 1, taken)}

	var stop atomic.Bool
	var wrote [3]atomic.Int64 // successful writes per tenant, client-counted
	errc := make(chan error, 8)
	var wg sync.WaitGroup
	clients := make([]*fsclient.ClusterClient, len(tenants))
	for i, tn := range tenants {
		cc, err := fsclient.DialCluster(csrv.URL)
		if err != nil {
			t.Fatalf("dial cluster: %v", err)
		}
		t.Cleanup(cc.Close)
		if err := cc.Login(tn, 1, "pw-"+tn); err != nil {
			t.Fatalf("login %s: %v", tn, err)
		}
		if err := cc.Create(fsproto.CreateRequest{Name: "f.bin", Perm: 0644, Size: 8192, Encrypted: true}); err != nil {
			t.Fatalf("create %s: %v", tn, err)
		}
		clients[i] = cc
	}
	for i := range clients {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			cc := clients[i]
			for j := 0; !stop.Load(); j++ {
				payload := bytes.Repeat([]byte{byte(i + 1)}, 128)
				if err := cc.Write(fsproto.WriteRequest{Name: "f.bin", Offset: uint64((j % 8) * 128), Data: payload}); err != nil {
					errc <- fmt.Errorf("tenant %s write %d: %w", tenants[i], j, err)
					return
				}
				wrote[i].Add(1)
				got, err := cc.Read(fsproto.ReadRequest{Name: "f.bin", Offset: uint64((j % 8) * 128), Length: 128})
				if err != nil {
					errc <- fmt.Errorf("tenant %s read %d: %w", tenants[i], j, err)
					return
				}
				if !bytes.Equal(got, payload) {
					errc <- fmt.Errorf("tenant %s read %d: wrong bytes", tenants[i], j)
					return
				}
			}
		}(i)
	}

	// Let traffic build, then migrate tenant 0's home shard A -> B live.
	time.Sleep(50 * time.Millisecond)
	if err := coord.Migrate(migShard, b.srv.URL); err != nil {
		stop.Store(true)
		wg.Wait()
		t.Fatalf("migrate: %v", err)
	}
	tblAfter := coord.Table()
	if owner, _ := tblAfter.Owner(migShard); owner != b.srv.URL {
		t.Fatalf("post-migration owner = %q, want %q", owner, b.srv.URL)
	}
	// Keep load running across the cutover, then stop.
	time.Sleep(50 * time.Millisecond)
	stop.Store(true)
	wg.Wait()
	select {
	case err := <-errc:
		t.Fatalf("client failed across migration: %v", err)
	default:
	}
	for i := range tenants {
		if wrote[i].Load() == 0 {
			t.Fatalf("tenant %s made no progress", tenants[i])
		}
	}

	// The target now owns the shard and serves the migrated session.
	if _, err := b.node.Service().LogLen(context.Background(), migShard); err != nil {
		t.Fatalf("target does not own shard %d: %v", migShard, err)
	}
	// A cross-tenant read whose session is homed on a shard still on A,
	// targeting the migrated tenant: A forwards one hop to B.
	got, err := clients[1].Read(fsproto.ReadRequest{
		Name: "f.bin", Tenant: tenants[0], Passphrase: "pw-" + tenants[0], Length: 128,
	})
	if err != nil {
		t.Fatalf("cross-shard read after migration (forwarding): %v", err)
	}
	if !bytes.Equal(got, bytes.Repeat([]byte{1}, 128)) {
		t.Fatalf("cross-shard read returned wrong bytes")
	}
	// And the client keeps writing to the migrated shard with its old token.
	if err := clients[0].Write(fsproto.WriteRequest{Name: "f.bin", Data: []byte("post-migration")}); err != nil {
		t.Fatalf("post-migration write: %v", err)
	}

	// A framed write through the same hop, sent below the client with no
	// trace header, so node A mints the trace ID: B must continue that
	// trace, log the write with its payload, and a replica of B's log must
	// reproduce B's memory byte for byte.
	if err := clients[0].Create(fsproto.CreateRequest{Name: "shared.bin", Perm: 0666, Size: 8192, Encrypted: true}); err != nil {
		t.Fatalf("create shared file: %v", err)
	}
	payload := bytes.Repeat([]byte("framed-over-the-hop:"), 100)
	meta, _ := json.Marshal(fsproto.WriteRequest{
		Name: "shared.bin", Tenant: tenants[0], Passphrase: "pw-" + tenants[0], Offset: 4096,
	})
	post := func(path, ctype, token string, body []byte) *http.Response {
		t.Helper()
		hr, err := http.NewRequest(http.MethodPost, a.srv.URL+path, bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		hr.Header.Set("Content-Type", ctype)
		hr.Header.Set(fsproto.TokenHeader, token)
		resp, err := http.DefaultClient.Do(hr)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { resp.Body.Close() })
		return resp
	}
	var lr fsproto.LoginResponse
	resp := post("/v1/login", fsproto.ContentTypeJSON, "", []byte(`{"tenant":"`+tenants[1]+`","uid":1,"passphrase":"pw-`+tenants[1]+`"}`))
	if err := json.NewDecoder(resp.Body).Decode(&lr); err != nil || lr.Token == "" {
		t.Fatalf("raw login on A: status %d, err %v", resp.StatusCode, err)
	}
	resp = post("/v1/write", fsproto.ContentTypeFrame, lr.Token, fsproto.AppendFrame(nil, meta, payload))
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(resp.Body)
		t.Fatalf("forwarded framed write: status %d: %s", resp.StatusCode, msg)
	}
	minted, err := strconv.ParseUint(resp.Header.Get(fsproto.RequestIDHeader), 16, 64)
	if err != nil || minted == 0 {
		t.Fatalf("entry node's X-Request-Id %q: %v", resp.Header.Get(fsproto.RequestIDHeader), err)
	}
	ctx := context.Background()
	segs, err := b.node.Service().RecordsFrom(ctx, migShard, 0)
	if err != nil {
		t.Fatalf("owner log: %v", err)
	}
	var rd fsproto.LogReader
	var recs []fsproto.LogRecord
	for log := bytes.Join(segs, nil); len(log) > 0; {
		var rec fsproto.LogRecord
		if log, err = rd.Next(log, &rec); err != nil {
			t.Fatalf("owner log: %v", err)
		}
		recs = append(recs, rec)
	}
	// The last write on record: an op-count-triggered checkpoint record may
	// follow it.
	li := len(recs) - 1
	for li > 0 && recs[li].Kind != fsproto.KindWrite {
		li--
	}
	last := recs[li]
	_, logged, err := fsproto.SplitFrame(last.Req)
	if err != nil || last.Kind != fsproto.KindWrite || !last.Framed {
		t.Fatalf("owner's last write record is %v (framed %v, %v), want the forwarded framed write", last.Kind, last.Framed, err)
	}
	if last.TraceID != minted {
		t.Errorf("owner logged trace %016x, entry node minted %016x", last.TraceID, minted)
	}
	if !bytes.Equal(logged, payload) {
		t.Errorf("owner's log record carries %d payload bytes, want the %d sent", len(logged), len(payload))
	}
	if err := coord.Replicate(migShard, c.srv.URL); err != nil {
		t.Fatalf("replicate: %v", err)
	}
	rep := c.node.Replica(migShard)
	if err := rep.Sync(); err != nil {
		t.Fatalf("replica sync: %v", err)
	}
	rep.Stop() // the detached shard is ours to read now
	if rep.Status().Pulled != uint64(len(recs)) || rep.Err() != nil {
		t.Fatalf("replica pulled %d of %d records, err %v", rep.Status().Pulled, len(recs), rep.Err())
	}
	var primary *memctrl.Image
	for _, sh := range b.node.Service().Shards() {
		if sh.ID() == migShard {
			var ierr error
			if err := sh.DoSide(ctx, func() { primary, ierr = sh.Sys.M.MC.ExportImage() }); err != nil || ierr != nil {
				t.Fatalf("export owner image: %v / %v", err, ierr)
			}
		}
	}
	replayed, err := rep.sh.Sys.M.MC.ExportImage()
	if err != nil {
		t.Fatalf("export replica image: %v", err)
	}
	if replayed.Digest() != primary.Digest() {
		t.Fatal("replica's replay of the forwarded framed write differs from the owner's memory")
	}
}

// TestSessionAcrossShardReturns: a session outlives the shards of an index it
// visits. Session S, homed on node B, reaches shard 1 while A owns it (A's
// log introduces S's token for a peer session of A's), then after the shard
// moved to B, away to A — where another session joins the log — and back to
// B. Each log introduces S's token once, S's ops land on the shard B owns
// now, and every record of S's is S's: a replica of the final log replays to
// the owner's memory.
func TestSessionAcrossShardReturns(t *testing.T) {
	coord, csrv := startCoordinator(t)
	a := startNode(t, nil, "a")
	b := startNode(t, []int{}, "b")
	for _, n := range []*testNode{a, b} {
		if _, err := coord.Join(n.srv.URL, n.empty); err != nil {
			t.Fatalf("join: %v", err)
		}
	}
	taken := map[string]bool{}
	home, shard := 0, 1
	tS, tI, tT := tenantOn(t, home, taken), tenantOn(t, shard, taken), tenantOn(t, shard, taken)
	login := func(tenant string) *fsclient.ClusterClient {
		t.Helper()
		cc, err := fsclient.DialCluster(csrv.URL)
		if err != nil {
			t.Fatalf("dial: %v", err)
		}
		t.Cleanup(cc.Close)
		if err := cc.Login(tenant, 1, "pw-"+tenant); err != nil {
			t.Fatalf("login %s: %v", tenant, err)
		}
		return cc
	}
	migrate := func(to *testNode) {
		t.Helper()
		if err := coord.Migrate(shard, to.srv.URL); err != nil {
			t.Fatalf("migrate shard %d to %s: %v", shard, to.srv.URL, err)
		}
	}
	if err := coord.Migrate(home, b.srv.URL); err != nil {
		t.Fatalf("migrate home shard: %v", err)
	}
	owner := login(tI)
	if err := owner.Create(fsproto.CreateRequest{Name: "f.bin", Perm: 0666, Size: 8192, Encrypted: true}); err != nil {
		t.Fatalf("create: %v", err)
	}
	s := login(tS)
	// S writes into tI's file with tI's passphrase, then reads it back.
	visit := func(round byte) {
		t.Helper()
		data := bytes.Repeat([]byte{round}, 256)
		if err := s.Write(fsproto.WriteRequest{Name: "f.bin", Tenant: tI, Passphrase: "pw-" + tI, Offset: 256 * uint64(round), Data: data}); err != nil {
			t.Fatalf("round %d: S's write: %v", round, err)
		}
		if got, err := owner.Read(fsproto.ReadRequest{Name: "f.bin", Offset: 256 * uint64(round), Length: 256}); err != nil || !bytes.Equal(got, data) {
			t.Fatalf("round %d: the owner reads %d bytes of S's write back (%v)", round, len(got), err)
		}
	}
	visit(1) // forwarded: A's log introduces S's token
	migrate(b)
	visit(2) // local on B
	migrate(a)
	login(tT) // a session introduced after S's, on A
	migrate(b)
	visit(3) // local on B again, on a new shard object

	ctx := context.Background()
	segs, err := b.node.Service().RecordsFrom(ctx, shard, 0)
	if err != nil {
		t.Fatalf("owner log: %v", err)
	}
	var rd fsproto.LogReader
	writes := 0
	for log := bytes.Join(segs, nil); len(log) > 0; {
		var rec fsproto.LogRecord
		if log, err = rd.Next(log, &rec); err != nil {
			t.Fatalf("owner log: %v", err)
		}
		if rec.Kind == fsproto.KindWrite {
			if writes++; rec.Tenant != tS {
				t.Errorf("write %d on record as tenant %q's, S is %q's", writes, rec.Tenant, tS)
			}
		}
	}
	if writes != 3 {
		t.Fatalf("owner log holds %d writes, want S's 3", writes)
	}
	if err := coord.Replicate(shard, a.srv.URL); err != nil {
		t.Fatalf("replicate: %v", err)
	}
	rep := a.node.Replica(shard)
	if err := rep.Sync(); err != nil {
		t.Fatalf("replica sync: %v", err)
	}
	rep.Stop()
	var root [32]byte
	for _, sh := range b.node.Service().Shards() {
		if sh.ID() == shard {
			if err := sh.DoSide(ctx, func() { root = sh.Sys.M.MC.MerkleRoot() }); err != nil {
				t.Fatal(err)
			}
		}
	}
	if rep.Root() != root {
		t.Fatal("a replica of the owner's log does not replay to the owner's memory")
	}
}

// TestLogoutAcrossMigration: a session logged out on its shard's owner stays
// logged out after the shard migrates — the new owner replays the logout with
// the rest of the log and answers the token 401.
func TestLogoutAcrossMigration(t *testing.T) {
	coord, _ := startCoordinator(t)
	a := startNode(t, nil, "a")
	b := startNode(t, []int{}, "b")
	for _, n := range []*testNode{a, b} {
		if _, err := coord.Join(n.srv.URL, n.empty); err != nil {
			t.Fatalf("join: %v", err)
		}
	}
	shard := 1
	tn := tenantOn(t, shard, map[string]bool{})
	post := poster(t)
	var lr fsproto.LoginResponse
	if code, out := post(a.srv.URL, "/v1/login", "", `{"tenant":"`+tn+`","uid":1,"passphrase":"pw-`+tn+`"}`); code != http.StatusOK || json.Unmarshal(out, &lr) != nil {
		t.Fatalf("login: %d %s", code, out)
	}
	if code, out := post(a.srv.URL, "/v1/create", lr.Token, `{"name":"f","perm":384,"size":4096}`); code != http.StatusOK {
		t.Fatalf("create: %d %s", code, out)
	}
	if code, out := post(a.srv.URL, "/v1/logout", lr.Token, `{}`); code != http.StatusOK {
		t.Fatalf("logout: %d %s", code, out)
	}
	if err := coord.Migrate(shard, b.srv.URL); err != nil {
		t.Fatalf("migrate: %v", err)
	}
	if code, out := post(b.srv.URL, "/v1/create", lr.Token, `{"name":"g","perm":384,"size":4096}`); code != http.StatusUnauthorized {
		t.Fatalf("the new owner answers a logged-out token %d %s, want 401", code, out)
	}
}

// poster returns a raw JSON POST of a /v1 request carrying a token and no
// peer headers, answering the status and body.
func poster(t *testing.T) func(base, path, token, body string) (int, []byte) {
	// A transport of its own: the request loop takes a /v1 connection over, and
	// a fabric pull reusing it from http.DefaultTransport would get 404.
	hc := &http.Client{Transport: &http.Transport{}}
	t.Cleanup(hc.CloseIdleConnections)
	return func(base, path, token, body string) (int, []byte) {
		t.Helper()
		hr, err := http.NewRequest(http.MethodPost, base+path, bytes.NewReader([]byte(body)))
		if err != nil {
			t.Fatal(err)
		}
		hr.Header.Set("Content-Type", fsproto.ContentTypeJSON)
		hr.Header.Set(fsproto.TokenHeader, token)
		resp, err := hc.Do(hr)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		out, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, out
	}
}

// TestLogoutEndsForwardedToken: a token homed on node A writes across tenants
// into a shard on node B, which A forwards with the session's identity as the
// peer. After the logout at A, the token sent straight to B, without peer
// headers, is refused: B resolves a token only through its home shard, which
// A owns and has dropped the token from.
func TestLogoutEndsForwardedToken(t *testing.T) {
	coord, _ := startCoordinator(t)
	a := startNode(t, nil, "a")
	b := startNode(t, []int{}, "b")
	for _, n := range []*testNode{a, b} {
		if _, err := coord.Join(n.srv.URL, n.empty); err != nil {
			t.Fatalf("join: %v", err)
		}
	}
	taken := map[string]bool{}
	home, shard := 0, 1
	tS, tI := tenantOn(t, home, taken), tenantOn(t, shard, taken)
	if err := coord.Migrate(shard, b.srv.URL); err != nil {
		t.Fatalf("migrate: %v", err)
	}
	post := poster(t)
	login := func(base, tenant string) string {
		t.Helper()
		var lr fsproto.LoginResponse
		if code, out := post(base, "/v1/login", "", `{"tenant":"`+tenant+`","uid":1,"passphrase":"pw-`+tenant+`"}`); code != http.StatusOK || json.Unmarshal(out, &lr) != nil {
			t.Fatalf("login %s: %d %s", tenant, code, out)
		}
		return lr.Token
	}
	owner := login(b.srv.URL, tI)
	if code, out := post(b.srv.URL, "/v1/create", owner, `{"name":"f","perm":438,"size":4096,"encrypted":true}`); code != http.StatusOK {
		t.Fatalf("create: %d %s", code, out)
	}
	tok := login(a.srv.URL, tS)
	write := `{"name":"f","tenant":"` + tI + `","passphrase":"pw-` + tI + `","offset":0,"data":"AQID"}`
	if code, out := post(a.srv.URL, "/v1/write", tok, write); code != http.StatusOK {
		t.Fatalf("forwarded cross-tenant write: %d %s", code, out)
	}
	if code, out := post(a.srv.URL, "/v1/logout", tok, `{}`); code != http.StatusOK {
		t.Fatalf("logout: %d %s", code, out)
	}
	if code, out := post(b.srv.URL, "/v1/write", tok, write); code != http.StatusUnauthorized {
		t.Fatalf("B answers the logged-out token %d %s, want 401", code, out)
	}
}

// TestReplicationAndFailover: a replica replays the primary's log over
// the fabric, diverges never, and promotes into the owner when the
// primary dies — with the client following via table refresh and no
// acknowledged write lost.
func TestReplicationAndFailover(t *testing.T) {
	coord, csrv := startCoordinator(t)
	a := startNode(t, nil, "a")
	b := startNode(t, []int{}, "b")
	cnode := startNode(t, []int{}, "c")
	for _, n := range []*testNode{a, b, cnode} {
		if _, err := coord.Join(n.srv.URL, n.empty); err != nil {
			t.Fatalf("join: %v", err)
		}
	}
	taken := map[string]bool{}
	shard := 1
	tn := tenantOn(t, shard, taken)
	cc, err := fsclient.DialCluster(csrv.URL)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	t.Cleanup(cc.Close)
	if err := cc.Login(tn, 1, "pw-"+tn); err != nil {
		t.Fatalf("login: %v", err)
	}
	if err := cc.Create(fsproto.CreateRequest{Name: "d.bin", Perm: 0600, Size: 4096, Encrypted: true}); err != nil {
		t.Fatalf("create: %v", err)
	}
	want := bytes.Repeat([]byte{0xab}, 512)
	if err := cc.Write(fsproto.WriteRequest{Name: "d.bin", Data: want}); err != nil {
		t.Fatalf("write: %v", err)
	}
	if err := cc.KVCreate(fsproto.KVCreateRequest{Store: "kv", Size: 16 * 4096}); err != nil {
		t.Fatalf("kv create: %v", err)
	}
	for i := 0; i < 64; i++ {
		if err := cc.KVPut(fsproto.KVPutRequest{Store: "kv", Key: uint64(i), Value: []byte{byte(i), byte(i >> 8)}}); err != nil {
			t.Fatalf("kv put %d: %v", i, err)
		}
	}

	// Replicate the shard on B and C; both must reach the primary's log
	// length with identical state.
	for _, n := range []*testNode{b, cnode} {
		if err := coord.Replicate(shard, n.srv.URL); err != nil {
			t.Fatalf("replicate on %s: %v", n.srv.URL, err)
		}
	}
	repB, repC := b.node.Replica(shard), cnode.node.Replica(shard)
	if repB == nil || repC == nil {
		t.Fatal("replicas not registered")
	}
	if err := repB.Sync(); err != nil {
		t.Fatalf("replica B sync: %v", err)
	}
	if err := repC.Sync(); err != nil {
		t.Fatalf("replica C sync: %v", err)
	}
	ln, err := a.node.Service().LogLen(context.Background(), shard)
	if err != nil {
		t.Fatalf("loglen: %v", err)
	}
	if repB.Status().Pulled != ln || repC.Status().Pulled != ln {
		t.Fatalf("replicas pulled %d/%d of %d records", repB.Status().Pulled, repC.Status().Pulled, ln)
	}
	if repB.Root() != repC.Root() {
		t.Fatalf("replica roots diverged: %x vs %x", repB.Root(), repC.Root())
	}

	// More writes, another sync round: the pull loop is incremental.
	want2 := bytes.Repeat([]byte{0xcd}, 512)
	if err := cc.Write(fsproto.WriteRequest{Name: "d.bin", Offset: 512, Data: want2}); err != nil {
		t.Fatalf("write 2: %v", err)
	}
	if err := repB.Sync(); err != nil {
		t.Fatalf("replica B resync: %v", err)
	}

	// Kill the primary; the coordinator health sweep promotes a replica.
	a.kill()
	moved := coord.CheckOwners()
	if len(moved) != 1 || moved[0] != shard {
		t.Fatalf("CheckOwners failed over %v, want [%d]", moved, shard)
	}
	tblAfter := coord.Table()
	owner, _ := tblAfter.Owner(shard)
	if owner != b.srv.URL && owner != cnode.srv.URL {
		t.Fatalf("failover owner = %q, want a replica", owner)
	}
	if owner == cnode.srv.URL {
		// C synced less than B; the coordinator picked the first healthy
		// replica. Either is correct for this test as long as it serves the
		// acknowledged state it replicated.
		t.Logf("promoted replica C")
	}

	// The client refreshes its table on the dead connection and lands on
	// the promoted replica; every acknowledged write before the last sync
	// must be there.
	got, err := cc.Read(fsproto.ReadRequest{Name: "d.bin", Length: 512})
	if err != nil {
		t.Fatalf("post-failover read: %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("post-failover read lost acknowledged data")
	}
	v, err := cc.KVGet(fsproto.KVGetRequest{Store: "kv", Key: 42})
	if err != nil {
		t.Fatalf("post-failover kv get: %v", err)
	}
	if !bytes.Equal(v, []byte{42, 0}) {
		t.Fatalf("post-failover kv get wrong value: %x", v)
	}
	// And accepts new writes as the owner.
	if err := cc.Write(fsproto.WriteRequest{Name: "d.bin", Offset: 1024, Data: []byte("after failover")}); err != nil {
		t.Fatalf("post-failover write: %v", err)
	}
}

// ownerRoot is the Merkle root of shard on the node owning it.
func ownerRoot(t *testing.T, n *testNode, shard int) [32]byte {
	t.Helper()
	for _, sh := range n.node.Service().Shards() {
		if sh.ID() == shard {
			var root [32]byte
			if err := sh.DoSide(context.Background(), func() { root = sh.Sys.M.MC.MerkleRoot() }); err != nil {
				t.Fatal(err)
			}
			return root
		}
	}
	t.Fatalf("%s does not own shard %d", n.srv.URL, shard)
	return [32]byte{}
}

// TestReplicaFollowsOwner: a replica keeps up with its shard across a
// migration and a failover. The table push points it at the new owner,
// whose log continues the old one position for position — after an A→B
// migration B's log is A's frozen log, byte for byte. C, a replica from
// the start, follows the shard onto B; after B dies and C is promoted, A,
// a replica by then, follows C.
func TestReplicaFollowsOwner(t *testing.T) {
	coord, csrv := startCoordinator(t)
	a := startNode(t, nil, "a")
	b := startNode(t, []int{}, "b")
	c := startNode(t, []int{}, "c")
	for _, n := range []*testNode{a, b, c} {
		if _, err := coord.Join(n.srv.URL, n.empty); err != nil {
			t.Fatalf("join: %v", err)
		}
	}
	shard := 2
	tn := tenantOn(t, shard, map[string]bool{})
	cc, err := fsclient.DialCluster(csrv.URL)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	t.Cleanup(cc.Close)
	if err := cc.Login(tn, 1, "pw-"+tn); err != nil {
		t.Fatalf("login: %v", err)
	}
	if err := cc.Create(fsproto.CreateRequest{Name: "f.bin", Perm: 0600, Size: 8192, Encrypted: true}); err != nil {
		t.Fatalf("create: %v", err)
	}
	write := func(round byte) {
		t.Helper()
		if err := cc.Write(fsproto.WriteRequest{Name: "f.bin", Offset: 512 * uint64(round), Data: bytes.Repeat([]byte{round}, 512)}); err != nil {
			t.Fatalf("write %d: %v", round, err)
		}
	}
	write(1)
	if err := coord.Replicate(shard, c.srv.URL); err != nil {
		t.Fatalf("replicate on C: %v", err)
	}
	repC := c.node.Replica(shard)

	ctx := context.Background()
	var frozen []byte
	coord.StepHook = func(step string, _ int) {
		if step == StepAfterFreeze {
			segs, err := a.node.Service().RecordsFrom(ctx, shard, 0)
			if err != nil {
				t.Errorf("A's frozen log: %v", err)
			}
			frozen = bytes.Join(segs, nil)
		}
	}
	if err := coord.Migrate(shard, b.srv.URL); err != nil {
		t.Fatalf("migrate: %v", err)
	}
	segs, err := b.node.Service().RecordsFrom(ctx, shard, 0)
	if err != nil {
		t.Fatalf("B's log: %v", err)
	}
	if len(frozen) == 0 || !bytes.Equal(bytes.Join(segs, nil), frozen) {
		t.Fatalf("B's log (%d bytes) is not A's frozen log (%d bytes)", len(bytes.Join(segs, nil)), len(frozen))
	}

	write(2)
	if err := repC.Sync(); err != nil {
		t.Fatalf("replica on C after the migration: %v", err)
	}
	if repC.Root() != ownerRoot(t, b, shard) {
		t.Fatal("replica on C differs from the new owner B")
	}

	if err := coord.Replicate(shard, a.srv.URL); err != nil {
		t.Fatalf("replicate on A: %v", err)
	}
	repA := a.node.Replica(shard)
	b.kill()
	if moved := coord.CheckOwners(); len(moved) != 1 || moved[0] != shard {
		t.Fatalf("CheckOwners failed over %v, want [%d]", moved, shard)
	}
	if tbl := coord.Table(); tbl.Placements[shard].Node != c.srv.URL {
		t.Fatalf("failover owner = %q, want C", tbl.Placements[shard].Node)
	}
	write(3)
	if err := repA.Sync(); err != nil {
		t.Fatalf("replica on A after the failover: %v", err)
	}
	if repA.Root() != ownerRoot(t, c, shard) {
		t.Fatal("replica on A differs from the new owner C")
	}
}

// TestReplicaTenKOps drives a 10k+ record admission log through one shard —
// puts and writes, each a record, and reads between them, which the shard
// may serve under its read lock and log as read deltas instead — and replays it
// on two replicas: both must consume the full log with zero divergence and
// identical Merkle roots.
func TestReplicaTenKOps(t *testing.T) {
	coord, _ := startCoordinator(t)
	a := startNode(t, nil, "a")
	b := startNode(t, []int{}, "b")
	c := startNode(t, []int{}, "c")
	for _, n := range []*testNode{a, b, c} {
		if _, err := coord.Join(n.srv.URL, n.empty); err != nil {
			t.Fatalf("join: %v", err)
		}
	}
	taken := map[string]bool{}
	shard := 3
	tn := tenantOn(t, shard, taken)

	// Drive the workload through the service directly (the log records
	// admission, not transport; HTTP adds nothing here but latency).
	svc := a.node.Service()
	ctx := context.Background()
	sess, err := svc.Login(ctx, tn, 1, "pw-"+tn, 0)
	if err != nil {
		t.Fatalf("login: %v", err)
	}
	if err := svc.KVCreate(ctx, sess, fsproto.KVCreateRequest{Store: "kv", Size: 1024 * 4096}); err != nil {
		t.Fatalf("kv create: %v", err)
	}
	if err := svc.Create(ctx, sess, fsproto.CreateRequest{Name: "w.bin", Perm: 0600, Size: 4096, Encrypted: true}); err != nil {
		t.Fatalf("create: %v", err)
	}
	const ops = 13_400 // 10 050 puts and writes
	val := []byte{1, 2, 3, 4, 5, 6, 7, 8}
	for i := 0; i < ops; i++ {
		switch i % 4 {
		case 0, 1:
			if err := svc.KVPut(ctx, sess, fsproto.KVPutRequest{Store: "kv", Key: uint64(i % 512), Value: val}); err != nil {
				t.Fatalf("kv put %d: %v", i, err)
			}
		case 2:
			if err := svc.Write(ctx, sess, fsproto.WriteRequest{Name: "w.bin", Offset: uint64((i % 32) * 64), Data: val}); err != nil {
				t.Fatalf("write %d: %v", i, err)
			}
		default:
			pl, err := svc.Read(ctx, sess, fsproto.ReadRequest{Name: "w.bin", Length: 64})
			if err != nil {
				t.Fatalf("read %d: %v", i, err)
			}
			pl.Release()
		}
	}
	ln, err := svc.LogLen(ctx, shard)
	if err != nil {
		t.Fatalf("loglen: %v", err)
	}
	if ln < ops*3/4 {
		t.Fatalf("admission log holds %d records, want >= %d", ln, ops*3/4)
	}

	for _, n := range []*testNode{b, c} {
		if err := coord.Replicate(shard, n.srv.URL); err != nil {
			t.Fatalf("replicate: %v", err)
		}
	}
	repB, repC := b.node.Replica(shard), c.node.Replica(shard)
	if err := repB.Sync(); err != nil {
		t.Fatalf("replica B sync: %v", err)
	}
	if err := repC.Sync(); err != nil {
		t.Fatalf("replica C sync: %v", err)
	}
	if repB.Status().Pulled != ln || repC.Status().Pulled != ln {
		t.Fatalf("replicas pulled %d/%d of %d", repB.Status().Pulled, repC.Status().Pulled, ln)
	}
	if repB.Err() != nil || repC.Err() != nil {
		t.Fatalf("replica errors: B=%v C=%v", repB.Err(), repC.Err())
	}
	if repB.Root() != repC.Root() {
		t.Fatalf("replica Merkle roots diverged after %d records", ln)
	}
}

// TestConcurrentFreeze: two coordinators racing to freeze one shard must not
// both get it — the shard itself arbitrates (server.ErrHeld), so exactly one
// freeze answers 200 and the other 409 "already frozen", and after a resume
// the shard can be frozen again.
func TestConcurrentFreeze(t *testing.T) {
	a := startNode(t, nil, "a")
	hc := &http.Client{Timeout: 10 * time.Second}
	freeze := func() (int, error) {
		resp, err := hc.Post(a.srv.URL+"/fabric/freeze", "application/json", bytes.NewReader([]byte(`{"shard":1}`)))
		if err != nil {
			return 0, err
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return resp.StatusCode, nil
	}
	for round := 0; round < 4; round++ {
		var wg sync.WaitGroup
		codes := make([]int, 2)
		for i := range codes {
			wg.Add(1)
			go func() {
				defer wg.Done()
				code, err := freeze()
				if err != nil {
					t.Errorf("round %d freeze %d: %v", round, i, err)
				}
				codes[i] = code
			}()
		}
		wg.Wait()
		if slices.Sort(codes); !slices.Equal(codes, []int{http.StatusOK, http.StatusConflict}) {
			t.Fatalf("round %d: concurrent freezes answered %v, want one 200 and one 409", round, codes)
		}
		if err := fsproto.ControlJSON(hc, a.srv.URL+"/fabric/resume", shardReq{Shard: 1}, nil); err != nil {
			t.Fatalf("round %d resume: %v", round, err)
		}
	}
}
