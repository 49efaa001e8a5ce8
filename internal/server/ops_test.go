package server

import (
	"bytes"
	"context"
	"errors"
	"testing"

	"fsencr/internal/fsproto"
	"fsencr/internal/kernel"
	"fsencr/internal/memctrl"
)

// kvPermService boots a one-shard service holding store "s" — created by
// user 1 of acme with one key in it, then chmodded to perm — and returns a
// login for further users of the tenant. They reach the store with the
// owner's passphrase, so only the permission bits stand between them and it.
func kvPermService(t *testing.T, perm uint16) (svc *Service, owner *Session, login func(uid uint32) *Session) {
	t.Helper()
	svc = New(Options{
		Shards: 1,
		MCMode: memctrl.Mode{MemEncryption: true, FileEncryption: true},
		Access: kernel.ModeDAX,
	})
	t.Cleanup(svc.Close)
	ctx := context.Background()
	login = func(uid uint32) *Session {
		t.Helper()
		s, err := svc.Login(ctx, "acme", uid, "pw-owner", 0)
		if err != nil {
			t.Fatalf("login uid %d: %v", uid, err)
		}
		return s
	}
	owner = login(1)
	if err := svc.KVCreate(ctx, owner, fsproto.KVCreateRequest{Store: "s", Size: 16 * 4096}); err != nil {
		t.Fatalf("kv create: %v", err)
	}
	if err := svc.KVPut(ctx, owner, fsproto.KVPutRequest{Store: "s", Key: 1, Value: []byte("owner's")}); err != nil {
		t.Fatalf("owner put: %v", err)
	}
	if err := svc.Chmod(ctx, owner, fsproto.ChmodRequest{Name: "kv/s", Perm: perm}); err != nil {
		t.Fatalf("chmod: %v", err)
	}
	return svc, owner, login
}

// TestKVWriteNeedsWritePermission: a group member of a 0640 store may get
// but not put or delete — cold, and also warm, when the session already
// holds a handle its get opened. The handle cache used to hand that
// read-checked handle to the write without asking again.
func TestKVWriteNeedsWritePermission(t *testing.T) {
	svc, owner, login := kvPermService(t, 0640)
	ctx := context.Background()
	for uid, name := range map[uint32]string{2: "cold", 3: "warm"} {
		t.Run(name, func(t *testing.T) {
			member := login(uid)
			if name == "warm" {
				pl, err := svc.KVGet(ctx, member, fsproto.KVGetRequest{Store: "s", Key: 1})
				if err != nil {
					t.Fatalf("group member's get: %v", err)
				}
				pl.Release()
			}
			err := svc.KVPut(ctx, member, fsproto.KVPutRequest{Store: "s", Key: 1, Value: []byte("member's")})
			if !errors.Is(err, kernel.ErrPermission) {
				t.Errorf("put without write permission = %v, want permission denied", err)
			}
			if _, err := svc.KVDelete(ctx, member, fsproto.KVDeleteRequest{Store: "s", Key: 1}); !errors.Is(err, kernel.ErrPermission) {
				t.Errorf("delete without write permission = %v, want permission denied", err)
			}
			pl, err := svc.KVGet(ctx, owner, fsproto.KVGetRequest{Store: "s", Key: 1})
			if err != nil || !bytes.Equal(pl.Data, []byte("owner's")) {
				t.Errorf("owner's value after the refused writes = %q, %v", pl.Data, err)
			}
			pl.Release()
		})
	}
}

// TestKVReadNeedsReadPermission is the mirror case: on a 0620 store a
// handle opened by a group member's put does not let that member get.
func TestKVReadNeedsReadPermission(t *testing.T) {
	svc, _, login := kvPermService(t, 0620)
	ctx := context.Background()
	member := login(2)
	if err := svc.KVPut(ctx, member, fsproto.KVPutRequest{Store: "s", Key: 2, Value: []byte("member's")}); err != nil {
		t.Fatalf("group member's put: %v", err)
	}
	if pl, err := svc.KVGet(ctx, member, fsproto.KVGetRequest{Store: "s", Key: 1}); !errors.Is(err, kernel.ErrPermission) {
		t.Errorf("get without read permission = %q, %v, want permission denied", pl.Data, err)
	}
}
