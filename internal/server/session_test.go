package server

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"maps"
	"net/http"
	"runtime"
	"sync"
	"testing"

	"fsencr/internal/fsproto"
)

// migrate moves shard idx of svc to a new node the way a migration does:
// freeze, replay the frozen log into a replica there, promote it, commit.
// The new node runs svc's discipline.
func migrate(t *testing.T, svc *Service, idx int) *Service {
	t.Helper()
	mig, log := frozenLog(t, svc, idx)
	opts := svc.opts
	opts.OwnedShards, opts.TokenPrefix = []int{}, "b"
	to := New(opts)
	t.Cleanup(to.Close)
	sh := to.NewReplicaShard(idx)
	if _, err := to.ReplayLog(sh, new(fsproto.LogReader), log); err != nil {
		t.Fatalf("replay: %v", err)
	}
	if err := to.PromoteShard(sh, &mig.At); err != nil {
		mig.Resume()
		t.Fatalf("promote: %v", err)
	}
	mig.Commit(1)
	return to
}

// TestFailedLoginRefusedAfterMigration: a wrong-passphrase login is a log
// record but no session. Its token — guessable, the next in sequence — must
// not become one on the shard's new owner, where it would act as the victim
// and could delete the victim's unencrypted file.
func TestFailedLoginRefusedAfterMigration(t *testing.T) {
	ctx := context.Background()
	svc := New(clusterTestOptions())
	defer svc.Close()
	tV := tenantOnShard(t, 1, 2, map[string]bool{})
	victim, err := svc.Login(ctx, tV, 1, "pw-"+tV, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := svc.Create(ctx, victim, fsproto.CreateRequest{Name: "open.txt", Perm: 0600, Size: 4096}); err != nil {
		t.Fatal(err)
	}
	if _, err := svc.Login(ctx, tV, 1, "guessed", 0); !errors.Is(err, ErrAuth) {
		t.Fatalf("login with the wrong passphrase: %v", err)
	}
	failed := fmt.Sprintf("t%d.1", svc.tokSeq.Load())

	to := migrate(t, svc, 1)
	if s, err := to.session(failed); !errors.Is(err, errBadToken) {
		t.Errorf("the new owner resolves the failed login's token %s: %v", failed, err)
		if err == nil {
			_ = to.Delete(ctx, s, fsproto.DeleteRequest{Name: "open.txt"})
		}
	}
	v, err := to.session(victim.token)
	if err != nil {
		t.Fatalf("the victim's session did not migrate: %v", err)
	}
	if _, err := to.Stat(ctx, v, fsproto.StatRequest{Name: "open.txt"}); err != nil {
		t.Fatalf("the victim's file did not survive: %v", err)
	}
}

// TestLogoutRefusedAfterMigration: a logout is logged, so a replayed log
// does not bring the token back on the shard's new owner.
func TestLogoutRefusedAfterMigration(t *testing.T) {
	ctx := context.Background()
	svc := New(clusterTestOptions())
	defer svc.Close()
	tn := tenantOnShard(t, 1, 2, map[string]bool{})
	s, err := svc.Login(ctx, tn, 1, "pw-"+tn, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := svc.Create(ctx, s, fsproto.CreateRequest{Name: "f", Perm: 0600, Size: 4096, Encrypted: true}); err != nil {
		t.Fatal(err)
	}
	if err := svc.Logout(s.token); err != nil {
		t.Fatal(err)
	}
	if _, err := svc.session(s.token); !errors.Is(err, errBadToken) {
		t.Fatalf("the source resolves the token after its logout: %v", err)
	}
	to := migrate(t, svc, 1)
	if _, err := to.session(s.token); !errors.Is(err, errBadToken) {
		t.Fatalf("the new owner resolves a logged-out token: %v", err)
	}
}

// TestShadowSessionKeepsShardState: a session homed on shard 0 writes into
// shard 1; shard 0 is dropped, and with it the token's home, so the token
// answers with the routing error. A forward from the token's home node acts
// as a new Session object built from the peer headers, and its write continues
// the token's state on shard 1, as every replayer of shard 1's log does, so a
// migration of shard 1 passes promotion's gates.
func TestShadowSessionKeepsShardState(t *testing.T) {
	ctx := context.Background()
	svc := New(clusterTestOptions())
	defer svc.Close()
	taken := map[string]bool{}
	tA, tB := tenantOnShard(t, 0, 2, taken), tenantOnShard(t, 1, 2, taken)
	sB, err := svc.Login(ctx, tB, 1, "pw-"+tB, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := svc.Create(ctx, sB, fsproto.CreateRequest{Name: "shared.bin", Perm: 0666, Size: 8192, Encrypted: true}); err != nil {
		t.Fatal(err)
	}
	sA, err := svc.Login(ctx, tA, 1, "pw-"+tA, 0)
	if err != nil {
		t.Fatal(err)
	}
	write := func(s *Session, off uint64) {
		t.Helper()
		req := fsproto.WriteRequest{Name: "shared.bin", Tenant: tB, Passphrase: "pw-" + tB, Offset: off, Data: bytes.Repeat([]byte{byte(off >> 8)}, 256)}
		if err := svc.Write(ctx, s, req); err != nil {
			t.Fatalf("cross-tenant write at %d: %v", off, err)
		}
	}
	write(sA, 0)
	svc.DropShard(0)
	var wse *WrongShardError
	if _, err := svc.session(sA.token); !errors.As(err, &wse) || wse.Shard != 0 {
		t.Fatalf("the token of a session homed on dropped shard 0 resolves to %v, want the routing error naming shard 0", err)
	}
	peer := peerSession(&fsproto.Request{Forwarded: true, Token: sA.token, Peer: &fsproto.Peer{Tenant: tA, UID: sA.uid, Pass: sA.pass}})
	if peer == nil || peer == sA {
		t.Fatalf("peer session %p: none, or the dropped object again", peer)
	}
	write(peer, 4096)
	migrate(t, svc, 1)
}

// stateful counts the tokens with state on svc's shards, read in a bracket of
// each.
func stateful(t *testing.T, svc *Service) int {
	t.Helper()
	n := 0
	for _, sh := range svc.Shards() {
		if err := sh.DoSide(context.Background(), func() { n += len(sh.sess) }); err != nil {
			t.Fatal(err)
		}
	}
	return n
}

// processes counts the kernel's processes on each of svc's shards, by index,
// read in a bracket of each.
func processes(t *testing.T, svc *Service) map[int]int {
	t.Helper()
	n := map[int]int{}
	for _, sh := range svc.Shards() {
		if err := sh.DoSide(context.Background(), func() { n[sh.id] = sh.Sys.Processes() }); err != nil {
			t.Fatal(err)
		}
	}
	return n
}

// TestSessionTableBounded: sessions that log in, act and log out leave no
// state on any shard, nor a process in its kernel — nor on a replica of either
// shard's log, migrated to another node, which resolves none of their tokens.
func TestSessionTableBounded(t *testing.T) {
	ctx := context.Background()
	svc := New(clusterTestOptions())
	defer svc.Close()
	taken := map[string]bool{}
	tenants := []string{tenantOnShard(t, 0, 2, taken), tenantOnShard(t, 1, 2, taken)}
	before := processes(t, svc)
	var tokens []string
	for i := 0; i < 50; i++ {
		tn, other := tenants[i%2], tenants[1-i%2]
		s, err := svc.Login(ctx, tn, uint32(1+i%3), "pw-"+tn, 0)
		if err != nil {
			t.Fatal(err)
		}
		tokens = append(tokens, s.token)
		if err := svc.Create(ctx, s, fsproto.CreateRequest{Name: fmt.Sprintf("f%d", i), Perm: 0600, Size: 4096, Encrypted: true}); err != nil {
			t.Fatal(err)
		}
		// A denied cross-tenant write gives the token state on the other shard.
		if err := svc.Write(ctx, s, fsproto.WriteRequest{Name: "f0", Tenant: other, Passphrase: "wrong", Data: []byte{1}}); err == nil {
			t.Fatal("a cross-tenant write with the wrong passphrase succeeded")
		}
		if n := stateful(t, svc); n != 2 {
			t.Fatalf("cycle %d: %d tokens have state across both shards, want the session's on each", i, n)
		}
		if err := svc.Logout(s.token); err != nil {
			t.Fatal(err)
		}
	}
	if n := stateful(t, svc); n != 0 {
		t.Fatalf("the shards keep state for %d tokens after every session logged out", n)
	}
	if after := processes(t, svc); !maps.Equal(after, before) {
		t.Fatalf("kernel processes per shard %v after every session logged out, %v before", after, before)
	}
	for idx := range 2 {
		to := migrate(t, svc, idx)
		if n := stateful(t, to); n != 0 {
			t.Fatalf("a replica of shard %d keeps state for %d tokens", idx, n)
		}
		if n := processes(t, to)[idx]; n != before[idx] {
			t.Fatalf("a replica of shard %d keeps %d kernel processes, the source %d before the sessions", idx, n, before[idx])
		}
		for i, tok := range tokens {
			if home := i % 2; home == idx {
				if _, err := to.session(tok); !errors.Is(err, errBadToken) {
					t.Fatalf("the owner of adopted shard %d resolves the logged-out token %s: %v", idx, tok, err)
				}
			} else if _, err := to.session(tok); !isWrongShard(err, home) {
				t.Fatalf("the owner of shard %d only resolves token %s, homed on shard %d, to %v", idx, tok, home, err)
			}
		}
	}
}

// TestSessionTableConcurrent: handlers resolve tokens outside any bracket while
// brackets enter them at login and drop them at logout. Run it under -race.
func TestSessionTableConcurrent(t *testing.T) {
	svc := New(clusterTestOptions())
	defer svc.Close()
	ctx := context.Background()
	var wg sync.WaitGroup
	for g := range 4 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			tn := fmt.Sprintf("tenant%d", g)
			for range 25 {
				s, err := svc.Login(ctx, tn, 1, "pw-"+tn, 0)
				if err != nil {
					t.Error(err)
					return
				}
				if got, err := svc.session(s.token); got != s || err != nil {
					t.Errorf("token %s resolves to %p (%v), the login's session is %p", s.token, got, err, s)
					return
				}
				if err := svc.Logout(s.token); err != nil {
					t.Error(err)
					return
				}
				if _, err := svc.session(s.token); !errors.Is(err, errBadToken) {
					t.Errorf("token %s resolves after its logout: %v", s.token, err)
					return
				}
			}
		}()
	}
	wg.Wait()
}

// isWrongShard reports whether err is the routing error naming shard idx.
func isWrongShard(err error, idx int) bool {
	var wse *WrongShardError
	return errors.As(err, &wse) && wse.Shard == idx
}

// TestLogoutRefusesAdmittedOp: an op admitted under a token before its logout
// and served after it is refused with the auth error on the token's home shard,
// and brings none of the token's state back — live, and in every replica of
// the shard's log, which passes promotion's gates.
func TestLogoutRefusesAdmittedOp(t *testing.T) {
	ctx := context.Background()
	svc := New(clusterTestOptions())
	defer svc.Close()
	tn := tenantOnShard(t, 1, 2, map[string]bool{})
	s, err := svc.Login(ctx, tn, 1, "pw-"+tn, 0)
	if err != nil {
		t.Fatal(err)
	}
	sh, err := svc.shardAt(1)
	if err != nil {
		t.Fatal(err)
	}
	h, err := sh.Hold(ctx)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		done <- svc.Create(ctx, s, fsproto.CreateRequest{Name: "late", Perm: 0600, Size: 4096})
	}()
	for sh.depth.Load() == 0 {
		runtime.Gosched()
	}
	if err := svc.Logout(s.token); err != nil {
		t.Fatal(err)
	}
	h.Resume()
	if err := <-done; !errors.Is(err, errBadToken) {
		t.Fatalf("an op admitted before the logout and served after it answers %v, want the auth error", err)
	}
	var st *sessState
	if err := sh.DoSide(ctx, func() { st = sh.sess[s.token] }); err != nil || st != nil {
		t.Fatalf("the home shard holds state for the logged-out token (%v)", err)
	}
	to := migrate(t, svc, 1)
	if _, err := to.session(s.token); !errors.Is(err, errBadToken) {
		t.Fatalf("the new owner resolves the logged-out token: %v", err)
	}
}

// TestMalformedTokens: a token that names no home shard in the routing space
// is refused as unknown, one whose home is owned elsewhere answers the routing
// error naming that shard, and none of them panics — resolved directly, and
// through a request.
func TestMalformedTokens(t *testing.T) {
	opts := clusterTestOptions()
	opts.OwnedShards = []int{0}
	svc := New(opts)
	defer svc.Close()
	for _, c := range []struct {
		token string
		home  int // -1: malformed
	}{
		{"", -1},
		{"t1", -1},
		{"t1.", -1},
		{".", -1},
		{"t1.x", -1},
		{"t1.0x", -1},
		{"t1.-1", -1},
		{"t1.+1", -1},
		{"t1.99999999999999999999999999999", -1},
		{"t1.2", -1},
		{"t1.0", 0}, // owned here, but no login minted it
		{"t1.1", 1},
		{"t1.2.1", 1},
	} {
		_, err := svc.session(c.token)
		want := http.StatusUnauthorized
		if c.home == 1 {
			want = http.StatusMisdirectedRequest
			if !isWrongShard(err, 1) {
				t.Errorf("token %q resolves to %v, want the routing error naming shard 1", c.token, err)
			}
		} else if !errors.Is(err, errBadToken) {
			t.Errorf("token %q resolves to %v, want errBadToken", c.token, err)
		}
		resp, _ := svc.handle(&fsproto.Request{Path: "/v1/stat", Token: c.token, Body: []byte(`{"name":"f"}`)})
		if resp.Status != want {
			t.Errorf("token %q: a request answers %d, want %d", c.token, resp.Status, want)
		}
	}
	if n := testing.AllocsPerRun(100, func() { svc.tokenHome("n0123abcd-42.1") }); n != 0 {
		t.Errorf("parsing a token's home shard allocates %.0f times", n)
	}
}
