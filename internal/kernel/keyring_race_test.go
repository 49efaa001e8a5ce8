package kernel_test

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"fsencr/internal/config"
	"fsencr/internal/fs"
	"fsencr/internal/kernel"
	"fsencr/internal/memctrl"
	"fsencr/internal/server"
)

// TestKeyringDenialRace drives two processes in different sharing groups
// through a server shard's machine lock, racing open/chmod/delete on the same
// encrypted file, plus concurrent keyring verifications. Run under -race
// this checks the shard serialization really is the only thing between
// network concurrency and the single-goroutine kernel — every denial path
// (permission bits, per-file key, owner-only chmod/unlink) must hold under
// arbitrary interleaving, and no intruder operation may ever succeed.
func TestKeyringDenialRace(t *testing.T) {
	sh := server.NewShardWith(0, config.Default(),
		memctrl.Mode{MemEncryption: true, FileEncryption: true}, kernel.ModeDAX,
		0, nil, server.ShardOptions{})
	defer sh.Close()
	ctx := context.Background()

	var owner, intruder *kernel.Process
	if _, err := sh.Do(ctx, 1, func() (any, error) {
		owner = sh.Sys.NewProcess(1001, 100)
		intruder = sh.Sys.NewProcess(2002, 200)
		sh.Sys.Keyring.Login(1001, "owner-master")
		_, err := sh.Sys.CreateFile(owner, "shared.db", 0600, 4096, true, "owner-pw")
		return nil, err
	}); err != nil {
		t.Fatalf("setup: %v", err)
	}

	const iters = 300
	var wg sync.WaitGroup
	var permDenials, keyDenials atomic.Uint64
	errc := make(chan error, 8)
	fail := func(err error) {
		select {
		case errc <- err:
		default:
		}
	}

	// Owner: legitimate opens while toggling the permission bits between
	// private (0600) and world-readable (0644). The toggle is what lets the
	// intruder exercise both denial paths: bits when closed, the per-file
	// key when the bits would allow it (the §VI chmod-777 argument).
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < iters; i++ {
			perm := fs.Mode(0600)
			if i%2 == 0 {
				perm = 0644
			}
			if _, err := sh.Do(ctx, 1, func() (any, error) {
				if _, err := sh.Sys.OpenFile(owner, "shared.db", fs.ReadAccess, "owner-pw"); err != nil {
					return nil, fmt.Errorf("owner open: %w", err)
				}
				return nil, sh.Sys.Chmod(owner, "shared.db", perm)
			}); err != nil {
				fail(err)
				return
			}
		}
	}()

	// Intruder: open with a guessed passphrase. Depending on where the
	// owner's chmod toggle stands this must fail on the bits or on the key
	// — never succeed.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < iters; i++ {
			if _, err := sh.Do(ctx, 2, func() (any, error) {
				_, err := sh.Sys.OpenFile(intruder, "shared.db", fs.ReadAccess, "guessed-pw")
				switch {
				case errors.Is(err, kernel.ErrPermission):
					permDenials.Add(1)
				case errors.Is(err, kernel.ErrWrongPassphrase):
					keyDenials.Add(1)
				case err == nil:
					return nil, errors.New("intruder open succeeded")
				default:
					return nil, fmt.Errorf("intruder open: unexpected %w", err)
				}
				return nil, nil
			}); err != nil {
				fail(err)
				return
			}
		}
	}()

	// Intruder: chmod and unlink — owner-only operations.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < iters; i++ {
			if _, err := sh.Do(ctx, 2, func() (any, error) {
				if err := sh.Sys.Chmod(intruder, "shared.db", 0777); !errors.Is(err, fs.ErrPermEperm) {
					return nil, fmt.Errorf("intruder chmod: want EPERM, got %v", err)
				}
				if err := sh.Sys.Unlink(intruder, "shared.db"); !errors.Is(err, kernel.ErrPermission) {
					return nil, fmt.Errorf("intruder unlink: want permission denial, got %v", err)
				}
				return nil, nil
			}); err != nil {
				fail(err)
				return
			}
		}
	}()

	// Keyring verification racing the file traffic: the registered master
	// key never verifies a wrong passphrase, unknown identities stay
	// unregistered.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < iters; i++ {
			if _, err := sh.Do(ctx, 3, func() (any, error) {
				if reg, ok := sh.Sys.Keyring.Verify(1001, "wrong-master"); !reg || ok {
					return nil, fmt.Errorf("verify(owner, wrong) = (%v, %v), want (true, false)", reg, ok)
				}
				if reg, _ := sh.Sys.Keyring.Verify(9999, "anything"); reg {
					return nil, errors.New("unknown uid reported registered")
				}
				return nil, nil
			}); err != nil {
				fail(err)
				return
			}
		}
	}()

	wg.Wait()
	select {
	case err := <-errc:
		t.Fatal(err)
	default:
	}
	if permDenials.Load()+keyDenials.Load() != iters {
		t.Fatalf("intruder opens unaccounted: perm %d + key %d != %d",
			permDenials.Load(), keyDenials.Load(), iters)
	}

	// Deterministic tail: pin the permission bits to each side of the
	// toggle and check the corresponding denial path directly.
	for _, tc := range []struct {
		perm fs.Mode
		want error
	}{
		{0600, kernel.ErrPermission},      // bits deny before the key is consulted
		{0644, kernel.ErrWrongPassphrase}, // bits allow, the per-file key denies
	} {
		if _, err := sh.Do(ctx, 1, func() (any, error) {
			return nil, sh.Sys.Chmod(owner, "shared.db", tc.perm)
		}); err != nil {
			t.Fatalf("chmod %o: %v", tc.perm, err)
		}
		if _, err := sh.Do(ctx, 2, func() (any, error) {
			_, err := sh.Sys.OpenFile(intruder, "shared.db", fs.ReadAccess, "guessed-pw")
			return nil, err
		}); !errors.Is(err, tc.want) {
			t.Fatalf("intruder open at %o: want %v, got %v", tc.perm, tc.want, err)
		}
	}

	// The file survived every attack and still opens for its owner.
	if _, err := sh.Do(ctx, 1, func() (any, error) {
		_, err := sh.Sys.OpenFile(owner, "shared.db", fs.ReadAccess, "owner-pw")
		return nil, err
	}); err != nil {
		t.Fatalf("owner open after race: %v", err)
	}
}
