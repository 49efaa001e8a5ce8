// Multiuser-net: the examples/multiuser isolation story, replayed over the
// network through fsencrd. Alice and Bob share the "research" tenant,
// Carol is in "finance"; each talks to the service through its own
// internal/fsclient session, and every guarantee the local example shows —
// permission bits, group-shared per-file keys, the chmod-777 argument,
// secure deletion — must survive the trip through HTTP, the shard queues,
// and the multi-tenant session layer.
package main

import (
	"fmt"
	"net"
	"net/http"

	"fsencr/internal/core"
	"fsencr/internal/fsclient"
	"fsencr/internal/fsproto"
	"fsencr/internal/server"
)

func must(err error) {
	if err != nil {
		panic(err)
	}
}

func main() {
	// Boot a 2-shard fsencrd in-process and serve it on a loopback port —
	// the same wiring `fsencrd serve` does.
	svc := server.New(server.Options{
		Shards: 2,
		MCMode: core.SchemeFsEncr.MCMode(),
		Access: core.SchemeFsEncr.AccessMode(),
	})
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	must(err)
	hs := &http.Server{Handler: svc.Mux()}
	go hs.Serve(lis)
	base := "http://" + lis.Addr().String()
	fmt.Printf("fsencrd on %s\n\n", base)

	alice := fsclient.Dial(base)
	bob := fsclient.Dial(base)
	carol := fsclient.Dial(base)
	must(alice.Login("research", 1000, "alice-pass"))
	must(bob.Login("research", 1001, "bob-pass"))
	must(carol.Login("finance", 1002, "carol-pass"))
	fmt.Printf("research tenant -> shard %d, finance tenant -> shard %d\n\n",
		alice.Shard(), carol.Shard())

	// Alice: a private file and a group-shared one (keyed with a shared
	// passphrase her tenant colleagues know).
	must(alice.Create(fsproto.CreateRequest{Name: "private.db", Perm: 0600, Size: 16 << 10, Encrypted: true}))
	must(alice.Create(fsproto.CreateRequest{
		Name: "shared.db", Perm: 0660, Size: 16 << 10, Encrypted: true,
		Passphrase: "research-group-pass",
	}))
	must(alice.Write(fsproto.WriteRequest{Name: "private.db", Data: []byte("alice's unpublished results")}))
	must(alice.Write(fsproto.WriteRequest{
		Name: "shared.db", Data: []byte("group dataset v1"),
		Passphrase: "research-group-pass",
	}))

	fmt.Println("== permission matrix over the network ==")
	check := func(who string, c *fsclient.Client, tenant, name, pass string) {
		_, err := c.Read(fsproto.ReadRequest{Name: name, Tenant: tenant, Length: 16, Passphrase: pass})
		status := "granted"
		if err != nil {
			status = fmt.Sprintf("denied (%v)", err)
		}
		fmt.Printf("  %-6s reads %-22s -> %s\n", who, name, status)
	}
	check("alice", alice, "", "private.db", "")
	check("bob", bob, "", "private.db", "")                               // 0600: permission bits deny
	check("bob", bob, "", "shared.db", "research-group-pass")             // group key: granted
	check("carol", carol, "research", "shared.db", "research-group-pass") // cross-tenant: denied

	// The §VI argument, networked: an accidental chmod 666 opens the
	// permission bits, but Carol still cannot read — the per-file key
	// gates her out at the memory controller.
	fmt.Println("\n== chmod 666 on private.db ==")
	must(alice.Chmod(fsproto.ChmodRequest{Name: "private.db", Perm: 0666}))
	check("carol", carol, "research", "private.db", "carol-guess")

	// Secure deletion: after Alice unlinks, the key is gone and the pages
	// are shredded; nobody — including Alice — sees the bytes again.
	fmt.Println("\n== delete private.db ==")
	must(alice.Delete(fsproto.DeleteRequest{Name: "private.db"}))
	check("alice", alice, "", "private.db", "")

	// The KV facade rides the same isolation: Alice's store answers her
	// tenant, Carol's probe is denied.
	fmt.Println("\n== tenant KV store ==")
	must(alice.KVCreate(fsproto.KVCreateRequest{Store: "results", Size: 1 << 20}))
	must(alice.KVPut(fsproto.KVPutRequest{Store: "results", Key: 42, Value: []byte("p < 0.05")}))
	v, err := alice.KVGet(fsproto.KVGetRequest{Store: "results", Key: 42})
	must(err)
	fmt.Printf("  alice  kv[42] = %q\n", v)
	if _, err := carol.KVGet(fsproto.KVGetRequest{Store: "results", Tenant: "research", Key: 42}); err != nil {
		fmt.Printf("  carol  kv[42] -> denied (%v)\n", err)
	}

	// What the security journal saw.
	var denials int
	for _, e := range svc.JournalEvents() {
		if e.Type == "cross_tenant_denied" {
			denials++
		}
	}
	snap := svc.MetricsSnapshot()
	fmt.Printf("\njournal: %d cross-tenant denials; served %d requests\n",
		denials, snap.Counters["server.requests_total"])

	// Graceful drain, then the listener closes.
	for _, c := range []*fsclient.Client{alice, bob, carol} {
		c.Close()
	}
	svc.Close()
	must(hs.Close())
	fmt.Println("drained cleanly")
}
