package server

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"math/rand/v2"
	"os"
	"slices"
	"strings"
	"testing"

	"fsencr/internal/fsproto"
)

// The service digest: one seeded op stream, driven from one goroutine into
// an in-process logged two-shard service, then one sha256 per artefact of
// every shard it leaves — the /shards.prom body, the module image's digest,
// the audit head, the security journal and the admission log's bytes. With
// one caller every op runs alone on its shard and waits 0 cycles, and every
// run of fast reads stays under deltaDrainThreshold between mutations, so
// the stream's outcome depends on no schedule: a refactor of the service
// path that claims to leave the service's simulation unchanged shows it by
// leaving these lines byte-identical (make service-digest-check against
// service-digest.sha256).

// digestSeed seeds the op stream.
const digestSeed = 47

// TestServiceDigest runs the stream twice and requires equal digests. With
// FSENCR_SERVICE_DIGEST naming a file, it writes the digest lines there
// (make service-digest).
func TestServiceDigest(t *testing.T) {
	got := serviceDigest(t)
	if again := serviceDigest(t); !slices.Equal(got, again) {
		t.Fatalf("two runs of one seeded stream differ:\n%s\n---\n%s", strings.Join(got, "\n"), strings.Join(again, "\n"))
	}
	if path := os.Getenv("FSENCR_SERVICE_DIGEST"); path != "" {
		if err := os.WriteFile(path, []byte(strings.Join(got, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// serviceDigest drives the stream: two tenants, one per shard, through every
// op kind at every size class, a counter wrap, a logout, then a migration of
// shard 1 (freeze, replay, promote) and more ops on its new owner. It
// returns the digest lines of shard 0, the retired source of shard 1 and the
// promoted shard.
func serviceDigest(t *testing.T) []string {
	t.Helper()
	bg := context.Background()
	rng := rand.New(rand.NewPCG(digestSeed, 0))
	svc := New(clusterTestOptions())
	t.Cleanup(svc.Close)
	taken := map[string]bool{}
	tenants := []string{tenantOnShard(t, 0, 2, taken), tenantOnShard(t, 1, 2, taken)}
	must := func(what string, err error) {
		t.Helper()
		if err != nil {
			t.Fatalf("%s: %v", what, err)
		}
	}
	steps := 0
	ctx := func() context.Context {
		if steps++; steps%5 != 0 {
			return bg
		}
		return WithTrace(bg, fsproto.TraceContext{TraceID: 0xd16e_0000 + uint64(steps), Parent: uint64(steps), Sampled: true})
	}
	sizes := []int{1, 64, 100, 256, 4096, 5000, 16384} // sub-line to multi-page, aligned or not
	const fileSize = 8 * 4096
	span := func() (off uint64, n int) {
		n = sizes[rng.IntN(len(sizes))]
		return uint64(rng.IntN(fileSize - n + 1)), n
	}
	sess := map[string]*Session{}
	for _, tn := range tenants {
		s, err := svc.Login(ctx(), tn, 1, "pw-"+tn, 0)
		must("login", err)
		sess[tn] = s
		_, err = svc.Login(ctx(), tn, 1, "wrong", 0)
		if err == nil {
			t.Fatal("a wrong passphrase logged in")
		}
		must("create", svc.Create(ctx(), s, fsproto.CreateRequest{Name: "data.bin", Perm: 0600, Size: fileSize, Encrypted: true}))
		must("create plain", svc.Create(ctx(), s, fsproto.CreateRequest{Name: "plain.bin", Perm: 0644, Size: 4096}))
		// A file keyed by a passphrase of its own, not the session's.
		must("create keyed", svc.Create(ctx(), s, fsproto.CreateRequest{Name: "keyed.bin", Perm: 0600, Size: 4096, Encrypted: true, Passphrase: "k1-" + tn}))
		must("kv create", svc.KVCreate(ctx(), s, fsproto.KVCreateRequest{Store: "kv", Size: 64 * 4096}))
	}

	// ops runs n random ops of each tenant named on svc. The reads on a shard
	// since its last mutation stay under deltaDrainThreshold.
	const readRun = 48
	ops := func(svc *Service, n int, names ...string) {
		for _, tn := range names {
			s := sess[tn]
			reads := 0
			for range n {
				op := rng.IntN(10)
				if reads+readRun >= deltaDrainThreshold {
					op = 0
				}
				switch op {
				case 0, 1:
					off, k := span()
					must("write", svc.Write(ctx(), s, fsproto.WriteRequest{Name: "data.bin", Offset: off, Data: bytes.Repeat([]byte{byte(rng.Uint32())}, k)}))
					reads = 0
				case 2, 3:
					// A run of fast reads, some of them KV gets.
					for range 1 + rng.IntN(readRun) {
						if rng.IntN(3) == 0 {
							if pl, err := svc.KVGet(ctx(), s, fsproto.KVGetRequest{Store: "kv", Key: uint64(rng.IntN(24))}); err == nil {
								pl.Release()
							}
						} else {
							off, k := span()
							pl, err := svc.Read(ctx(), s, fsproto.ReadRequest{Name: "data.bin", Offset: off, Length: k})
							must("read", err)
							pl.Release()
						}
						reads++
					}
				case 4, 5:
					k := 1 + rng.IntN(256)
					must("kv put", svc.KVPut(ctx(), s, fsproto.KVPutRequest{Store: "kv", Key: uint64(rng.IntN(24)), Value: bytes.Repeat([]byte{byte(k)}, k)}))
					reads = 0
				case 6:
					_, err := svc.KVDelete(ctx(), s, fsproto.KVDeleteRequest{Store: "kv", Key: uint64(rng.IntN(24))})
					must("kv delete", err)
					reads = 0
				case 7:
					must("chmod", svc.Chmod(ctx(), s, fsproto.ChmodRequest{Name: "plain.bin", Perm: []uint16{0600, 0640, 0644}[rng.IntN(3)]}))
					reads = 0
				case 8:
					// Delete, then recreate under a new passphrase: the old
					// one no longer opens it.
					must("delete", svc.Delete(ctx(), s, fsproto.DeleteRequest{Name: "keyed.bin"}))
					pass := fmt.Sprintf("k%d-%s", rng.IntN(1000), tn)
					must("recreate", svc.Create(ctx(), s, fsproto.CreateRequest{Name: "keyed.bin", Perm: 0600, Size: 4096, Encrypted: true, Passphrase: pass}))
					must("keyed write", svc.Write(ctx(), s, fsproto.WriteRequest{Name: "keyed.bin", Data: []byte(pass), Passphrase: pass}))
					if err := svc.Write(ctx(), s, fsproto.WriteRequest{Name: "keyed.bin", Data: []byte{1}, Passphrase: "pw-" + tn}); err == nil {
						t.Fatal("a file opened under a passphrase not its own")
					}
					reads = 0
				case 9:
					// A cross-tenant probe, refused on the other shard.
					other := tenants[0]
					if other == tn {
						other = tenants[1]
					}
					if svc.Chmod(ctx(), s, fsproto.ChmodRequest{Name: "data.bin", Tenant: other, Perm: 0666}) == nil {
						t.Fatal("a cross-tenant chmod succeeded")
					}
				}
			}
		}
	}
	ops(svc, 120, tenants...)
	// 130 writes to one line of each tenant's file: past a minor counter's
	// 128 values.
	for _, tn := range tenants {
		for i := range 130 {
			must("line write", svc.Write(ctx(), sess[tn], fsproto.WriteRequest{Name: "data.bin", Offset: 4096 + 64, Data: bytes.Repeat([]byte{byte(i)}, 64)}))
		}
	}
	// A second session that logs out.
	s2, err := svc.Login(ctx(), tenants[0], 2, "pw2", 0)
	must("login uid 2", err)
	must("uid 2 create", svc.Create(ctx(), s2, fsproto.CreateRequest{Name: "u2.bin", Perm: 0600, Size: 4096, Encrypted: true}))
	must("logout", svc.Logout(s2.token))

	src := svc.Shards()[1]
	to := migrate(t, svc, 1)
	ops(to, 40, tenants[1])

	var lines []string
	for _, sh := range []struct {
		name string
		sh   *Shard
	}{{"shard0", svc.Shards()[0]}, {"shard1-source", src}, {"shard1-promoted", to.Shards()[0]}} {
		lines = append(lines, digestShard(t, sh.name, sh.sh)...)
	}
	return lines
}

// digestShard returns the sha256 lines of one shard's artefacts, each read
// inside a bracket of the shard.
func digestShard(t *testing.T, name string, sh *Shard) []string {
	t.Helper()
	var img [32]byte
	var head, jrn, log []byte
	var err error
	if derr := sh.DoSide(context.Background(), func() {
		m, ierr := sh.Sys.M.MC.ExportImage()
		if err = ierr; err != nil {
			return
		}
		img = m.Digest()
		seq, hash := sh.Aud.Head()
		head = fmt.Appendf(nil, "%d %x", seq, hash)
		jrn, err = json.Marshal(sh.Jrn.Events())
		log = bytes.Join(sh.log.from(0), nil)
	}); derr != nil || err != nil {
		t.Fatalf("%s: %v %v", name, derr, err)
	}
	var lines []string
	for _, a := range []struct {
		what string
		b    []byte
	}{{"prom", promBytes(t, sh)}, {"image", img[:]}, {"audit-head", head}, {"journal", jrn}, {"log", log}} {
		lines = append(lines, fmt.Sprintf("%x  %s/%s", sha256.Sum256(a.b), name, a.what))
	}
	return lines
}
