package server_test

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"testing"
	"time"

	"fsencr/internal/core"
	"fsencr/internal/fsclient"
	"fsencr/internal/fsproto"
	"fsencr/internal/server"
)

const (
	smokeShards  = 2
	smokeClients = 8
	smokeTenants = 2
	smokeOps     = 24
	smokeSeed    = 7
)

// runSmoke boots a fair, logged fsencrd, drives the concurrent load
// generator against it over real HTTP, and returns the loadgen report. Each
// shard's frozen admission log is then replayed on an empty node, whose
// /shards.prom must equal the source's section of that shard byte for byte.
// It also performs the insider ciphertext check and the graceful-drain check
// before tearing the server down.
func runSmoke(t *testing.T) *fsclient.LoadgenReport {
	t.Helper()
	opts := server.Options{
		Shards:       smokeShards,
		MCMode:       core.SchemeFsEncr.MCMode(),
		Access:       core.SchemeFsEncr.AccessMode(),
		AdmissionLog: true,
		ChipSeqBase:  server.DefaultChipSeqBase,
	}
	svc := server.New(opts)
	hs := httptest.NewServer(svc.Mux())
	defer hs.Close()

	rep, err := fsclient.RunLoadgen(hs.URL, fsclient.LoadgenOptions{
		Clients: smokeClients,
		Tenants: smokeTenants,
		Ops:     smokeOps,
		Mix:     "3:1",
		Seed:    smokeSeed,
	})
	if err != nil {
		t.Fatalf("loadgen: %v", err)
	}

	// Reproducibility: the per-shard telemetry of the concurrent run is a
	// pure function of each shard's log. Freeze every shard, then replay its
	// log on an empty node and promote it there.
	ctx := context.Background()
	migs := make([]*server.Migration, smokeShards)
	logs := make([][]byte, smokeShards)
	for i := range migs {
		if migs[i], err = svc.FreezeShard(ctx, i); err != nil {
			t.Fatalf("freeze shard %d: %v", i, err)
		}
		segs, err := svc.RecordsFrom(ctx, i, 0)
		if err != nil {
			t.Fatalf("shard %d log: %v", i, err)
		}
		logs[i] = bytes.Join(segs, nil)
	}
	src := getBody(t, hs.URL+"/shards.prom")
	for i, mig := range migs {
		ropts := opts
		ropts.OwnedShards, ropts.TokenPrefix = []int{}, "r"
		node := server.New(ropts)
		sh := node.NewReplicaShard(i)
		if _, err := node.ReplayLog(sh, new(fsproto.LogReader), logs[i]); err != nil {
			t.Fatalf("replay shard %d: %v", i, err)
		}
		if err := node.PromoteShard(sh, &mig.At); err != nil {
			t.Fatalf("promote shard %d: %v", i, err)
		}
		rs := httptest.NewServer(node.Mux())
		got := getBody(t, rs.URL+"/shards.prom")
		rs.Close()
		node.Close()
		if want := shardSection(src, i); !bytes.Equal(got, want) || !bytes.Contains(want, []byte("queue_wait_cycles")) {
			t.Fatalf("replica of shard %d: /shards.prom is not the source's section:\n--- source ---\n%s\n--- replica ---\n%s", i, want, got)
		}
		mig.Resume()
	}

	// Insider dump check: with every line written back to NVM, decrypting
	// client 0's first page with the memory key alone must not expose its
	// plaintext pattern — the file OTP is still on it.
	gid := fsproto.TenantGID("tenant00")
	sh := svc.Shards()[fsproto.ShardIndex(gid, smokeShards)]
	sh.Sys.M.WritebackAll()
	f, err := sh.Sys.FS.Lookup("tenant00/f000.dat")
	if err != nil {
		t.Fatalf("lookup client 0 file: %v", err)
	}
	pa, err := f.PagePA(0)
	if err != nil {
		t.Fatalf("page 0 PA: %v", err)
	}
	line := sh.Sys.M.MC.DecryptWithMemoryKeyOnly(pa.WithDF())
	if pat := bytes.Repeat([]byte{fsclient.Pattern(0)}, 16); bytes.Contains(line[:], pat) {
		t.Fatal("memory key alone exposed file plaintext in NVM dump")
	}

	// Graceful drain: Close returns with every admitted request answered,
	// and new work is refused with the draining code.
	svc.Close()
	cl := fsclient.Dial(hs.URL)
	if err := cl.Login("tenant00", 99, "pw"); !fsclient.IsCode(err, fsproto.CodeDraining) {
		t.Fatalf("post-drain login: want draining, got %v", err)
	}
	// Side work on a stopped shard answers at once too: the exports come
	// back empty or draining, none of them waits for a worker that is gone.
	drained := make(chan struct{})
	go func() {
		defer close(drained)
		ctx := context.Background()
		if recs := svc.AuditRecords(); len(recs) != 0 {
			t.Errorf("post-drain AuditRecords: %d records", len(recs))
		}
		if err := svc.VerifyAudit(); !errors.Is(err, server.ErrDraining) {
			t.Errorf("post-drain VerifyAudit: %v, want draining", err)
		}
		if recs, err := svc.RecordsFrom(ctx, 0, 0); !errors.Is(err, server.ErrDraining) || len(recs) != 0 {
			t.Errorf("post-drain RecordsFrom: %d records, %v, want draining", len(recs), err)
		}
		if n, err := svc.LogLen(ctx, 0); !errors.Is(err, server.ErrDraining) || n != 0 {
			t.Errorf("post-drain LogLen: %d, %v, want draining", n, err)
		}
	}()
	select {
	case <-drained:
	case <-time.After(5 * time.Second):
		t.Fatal("side-work exports hung on a drained service")
	}
	return rep
}

// shardSection cuts shard i's section, header included, out of a
// /shards.prom body.
func shardSection(prom []byte, i int) []byte {
	head := fmt.Appendf(nil, "# shard %d\n", i)
	start := bytes.Index(prom, head)
	if start < 0 {
		return nil
	}
	rest := prom[start+len(head):]
	if end := bytes.Index(rest, []byte("# shard ")); end >= 0 {
		rest = rest[:end]
	}
	return prom[start : start+len(head)+len(rest)]
}

// getBody GETs url and returns the body.
func getBody(t *testing.T, url string) []byte {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("read %s: %v", url, err)
	}
	return b
}

// drainTakenOver checks the drain of connections the request loop holds,
// which http.Server.Shutdown no longer sees. Two are open: one idle, one with
// a write in flight behind a held shard. Close kicks the idle one at once,
// waits for the write, whose answer arrives marked "Connection: close", and
// returns; the idle client's next request finds its connection gone and
// redials. Then the other order of teardown: the listener closed first,
// Close still finds and ends the loop of a connection that is merely idle.
// The caller's goroutine count is the leak check for both.
func drainTakenOver(t *testing.T) {
	t.Helper()
	boot := func() (*server.Service, *httptest.Server) {
		svc := server.New(server.Options{
			Shards: 1,
			MCMode: core.SchemeFsEncr.MCMode(),
			Access: core.SchemeFsEncr.AccessMode(),
		})
		return svc, httptest.NewServer(svc.Mux())
	}
	gauge := func(svc *server.Service) uint64 { return svc.Registry().Gauge("server.data_conns").Value() }
	await := func(what string, cond func() bool) {
		t.Helper()
		for deadline := time.Now().Add(5 * time.Second); !cond(); time.Sleep(time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatalf("drain: timed out waiting for %s", what)
			}
		}
	}

	svc, hs := boot()
	defer hs.Close()
	idle := fsclient.Dial(hs.URL)
	defer idle.Close()
	if err := idle.Login("acme", 1, "pw"); err != nil {
		t.Fatalf("drain: login: %v", err)
	}
	if err := idle.Create(fsproto.CreateRequest{Name: "f.dat", Perm: 0600, Size: 8192, Encrypted: true}); err != nil {
		t.Fatalf("drain: create: %v", err)
	}
	// The writer is a bare fsproto.Conn, so its answer's Close flag is
	// visible; its login gets it taken over.
	busy, err := fsproto.Dial(hs.URL)
	if err != nil {
		t.Fatal(err)
	}
	defer busy.Close()
	var lr fsproto.LoginResponse
	resp, err := busy.Do(&fsproto.Request{Path: "/v1/login", ContentType: fsproto.ContentTypeJSON,
		Body: []byte(`{"tenant":"acme","uid":1,"passphrase":"pw"}`)})
	if err != nil || json.Unmarshal(resp.Body, &lr) != nil || lr.Token == "" || resp.Close {
		t.Fatalf("drain: writer's login: %+v, %v", resp, err)
	}
	write := fsproto.Request{Path: "/v1/write", ContentType: fsproto.ContentTypeJSON, Token: lr.Token,
		Body: []byte(`{"name":"f.dat","offset":0,"data":"WlpaWg=="}`)}
	await("two taken-over connections", func() bool { return gauge(svc) == 2 })

	hold, err := svc.Shards()[0].Hold(context.Background())
	if err != nil {
		t.Fatalf("drain: hold: %v", err)
	}
	served := svc.Registry().Counter("server.requests_total").Value()
	type answer struct {
		resp fsproto.Response
		err  error
	}
	answered := make(chan answer, 1)
	go func() {
		resp, err := busy.Do(&write)
		answered <- answer{resp, err}
	}()
	await("the write to be in its handler", func() bool {
		return svc.Registry().Counter("server.requests_total").Value() == served+1
	})
	closed := make(chan struct{})
	start := time.Now()
	go func() {
		defer close(closed)
		svc.Close()
	}()
	// The idle connection goes first; the busy one is waited for.
	await("the idle connection to be kicked", func() bool { return gauge(svc) == 1 })
	select {
	case <-closed:
		t.Fatal("drain: Close returned with a request in flight")
	default:
	}
	hold.Resume()
	if a := <-answered; a.err != nil || a.resp.Status != http.StatusOK || !a.resp.Close {
		t.Fatalf("drain: the in-flight write was answered %+v, %v; want 200 with Connection: close", a.resp, a.err)
	}
	select {
	case <-closed:
	case <-time.After(5 * time.Second):
		t.Fatal("drain: Close did not return once the in-flight request was answered")
	}
	if d := time.Since(start); d > 2*time.Second {
		t.Errorf("drain: Close took %v", d)
	}
	// Its connection is gone, so this redials — and reaches a closed service.
	if _, err := idle.Stat(fsproto.StatRequest{Name: "f.dat"}); !fsclient.IsCode(err, fsproto.CodeAuth) && !fsclient.IsCode(err, fsproto.CodeDraining) {
		t.Fatalf("drain: idle client's next request: %v, want an answer from the closed service over a new connection", err)
	}
	if n := gauge(svc); n != 0 {
		t.Fatalf("drain: server.data_conns = %d after Close, want 0", n)
	}

	svc, hs = boot()
	cl := fsclient.Dial(hs.URL)
	defer cl.Close()
	if err := cl.Login("acme", 1, "pw"); err != nil {
		t.Fatalf("drain: login: %v", err)
	}
	await("the connection to be taken over", func() bool { return gauge(svc) == 1 })
	hs.Close()
	svc.Close()
	if n := gauge(svc); n != 0 {
		t.Fatalf("drain: server.data_conns = %d after the listener, then the service, closed; want 0", n)
	}
}

// TestFsencrdSmoke is the CI gate for the file service: real HTTP clients,
// zero cross-tenant leaks, ciphertext-only on insider dump, graceful
// drain — of the shards and of the connections the request loop holds —
// no goroutine leaks, and per-shard telemetry that a replay of each shard's
// log reproduces byte for byte.
func TestFsencrdSmoke(t *testing.T) {
	before := runtime.NumGoroutine()
	drainTakenOver(t)

	rep := runSmoke(t)
	if rep.Leaks != 0 {
		t.Fatalf("%d cross-tenant leaks: %s", rep.Leaks, rep)
	}
	if rep.Errors != 0 {
		t.Fatalf("%d unexpected errors (first: %s)", rep.Errors, rep.FirstError)
	}
	wantProbes := uint64(smokeClients * (smokeOps / 8)) // CrossEvery defaults to 8
	if rep.CrossProbes != wantProbes || rep.CrossDenied != wantProbes {
		t.Fatalf("cross-tenant probes %d denied %d, want %d of each: %s",
			rep.CrossProbes, rep.CrossDenied, wantProbes, rep)
	}
	if rep.Reads == 0 || rep.Writes == 0 {
		t.Fatalf("degenerate mix: %s", rep)
	}

	// Every service is closed and every test server down: every shard
	// worker and HTTP goroutine must be gone.
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before+2 && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > before+2 {
		t.Fatalf("goroutine leak: %d before, %d after drain", before, n)
	}
}

// TestServiceSecurityAccounting checks the service-level security
// telemetry and journal: failed logins and cross-tenant denials are
// counted and journaled.
func TestServiceSecurityAccounting(t *testing.T) {
	svc := server.New(server.Options{
		Shards: 1,
		MCMode: core.SchemeFsEncr.MCMode(),
		Access: core.SchemeFsEncr.AccessMode(),
	})
	defer svc.Close()
	hs := httptest.NewServer(svc.Mux())
	defer hs.Close()

	alice := fsclient.Dial(hs.URL)
	if err := alice.Login("acme", 1, "alice-pw"); err != nil {
		t.Fatalf("login: %v", err)
	}
	if err := alice.Create(fsproto.CreateRequest{Name: "secret.db", Perm: 0600, Size: 4096, Encrypted: true}); err != nil {
		t.Fatalf("create: %v", err)
	}

	// Wrong passphrase for an already-registered identity: auth failure.
	evil := fsclient.Dial(hs.URL)
	if err := evil.Login("acme", 1, "guessed-pw"); !fsclient.IsCode(err, fsproto.CodeAuth) {
		t.Fatalf("want auth failure, got %v", err)
	}

	// A different tenant reaching into acme's namespace: denied, journaled.
	bob := fsclient.Dial(hs.URL)
	if err := bob.Login("globex", 1, "bob-pw"); err != nil {
		t.Fatalf("bob login: %v", err)
	}
	_, err := bob.Read(fsproto.ReadRequest{Name: "secret.db", Tenant: "acme", Offset: 0, Length: 64})
	if !fsclient.IsCode(err, fsproto.CodePermission) {
		t.Fatalf("want permission denial, got %v", err)
	}

	snap := svc.MetricsSnapshot()
	if snap.Counters["server.auth_failures_total"] == 0 {
		t.Fatal("auth failure not counted")
	}
	if snap.Counters["server.cross_tenant_denials_total"] == 0 {
		t.Fatal("cross-tenant denial not counted")
	}
	var sawAuth, sawDenial bool
	for _, e := range svc.JournalEvents() {
		switch e.Type {
		case "auth_failure":
			sawAuth = true
		case "cross_tenant_denied":
			sawDenial = true
		}
	}
	if !sawAuth || !sawDenial {
		t.Fatalf("journal missing security events (auth %v denial %v)", sawAuth, sawDenial)
	}
}
