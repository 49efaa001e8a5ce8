// Command fsencrd serves the simulated encrypted DAX filesystem to many
// concurrent network clients, multiplexed onto a pool of sharded
// simulated machines (one kernel.System per shard, tenant -> shard by
// GroupID hash).
//
// Usage:
//
//	fsencrd serve -addr :9144 -shards 4 -scheme fsencr
//	fsencrd serve -addr :9144 -shards 4 -det          # deterministic admission
//	fsencrd loadgen -addr http://127.0.0.1:9144 -clients 64 -tenants 4 -mix 3:1
//
// Cluster mode (the multi-node shard fabric, see internal/cluster):
//
//	fsencrd coordinator -addr :9100 -shards 4 -check-every 2s
//	fsencrd serve -addr :9144 -join http://127.0.0.1:9100               # first node: owns all shards
//	fsencrd serve -addr :9145 -join http://127.0.0.1:9100 -empty        # joiner: receives shards by migration
//	fsencrd migrate   -coordinator http://127.0.0.1:9100 -shard 2 -to http://127.0.0.1:9145
//	fsencrd replicate -coordinator http://127.0.0.1:9100 -shard 2 -on http://127.0.0.1:9145
//
// The serve mode exposes the /v1 file+KV API (see internal/fsproto), the
// per-shard determinism surfaces /shards.prom and /shards.json, and the
// live observability plane (/metrics /snapshot.json /trace.json
// /journal.jsonl /healthz /debug/pprof). SIGINT/SIGTERM triggers a
// graceful drain: admission stops, admitted requests finish, the HTTP
// listener closes.
//
// The loadgen mode drives a running server with N concurrent clients
// spread over M tenants, mixing reads and writes plus periodic
// cross-tenant probes that the kernel must deny, and exits nonzero on any
// isolation leak or unexpected error. With -malice it instead runs the
// malicious-client campaign (forged/replayed tokens, cross-tenant
// overrides, oversized and forged requests) and exits nonzero if any
// attack is not refused with its documented error code.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"hash/fnv"
	"io"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"fsencr/internal/cluster"
	"fsencr/internal/core"
	"fsencr/internal/fsclient"
	"fsencr/internal/fsproto"
	"fsencr/internal/server"
)

func fail(code int, err error) {
	fmt.Fprintln(os.Stderr, "fsencrd:", err)
	os.Exit(code)
}

func parseScheme(s string) (core.Scheme, error) {
	switch s {
	case "plain", "ext4-dax":
		return core.SchemePlain, nil
	case "baseline":
		return core.SchemeBaseline, nil
	case "fsencr":
		return core.SchemeFsEncr, nil
	case "swencr", "ecryptfs":
		return core.SchemeSWEncr, nil
	}
	return 0, fmt.Errorf("unknown scheme %q (plain|baseline|fsencr|swencr)", s)
}

func serveMain(args []string) {
	fl := flag.NewFlagSet("serve", flag.ExitOnError)
	var (
		addr      = fl.String("addr", ":9144", "listen address")
		shards    = fl.Int("shards", 4, "number of simulated machines")
		scheme    = fl.String("scheme", "fsencr", "protection scheme: plain|baseline|fsencr|swencr")
		det       = fl.Bool("det", false, "deterministic admission (requests carry schedule sequence numbers)")
		serialRd  = fl.Bool("serial-reads", false, "disable the concurrent read fast-path (serialized A/B baseline)")
		perTenant = fl.Int("per-tenant-queue", server.DefaultPerTenantQueue, "per-tenant admitted-request bound (backpressure)")
		timeout   = fl.Duration("timeout", server.DefaultRequestTimeout, "per-request queue+execute bound")
		drain     = fl.Duration("drain-timeout", 30*time.Second, "graceful shutdown bound")
		join      = fl.String("join", "", "coordinator URL to join — enables the cluster fabric and the admission log")
		advertise = fl.String("advertise", "", "base URL peers reach this node at (default http://127.0.0.1:<port>)")
		empty     = fl.Bool("empty", false, "with -join: boot owning no shards (receive them by migration)")
	)
	fl.Parse(args)
	sc, err := parseScheme(*scheme)
	if err != nil {
		fail(2, err)
	}

	opts := server.Options{
		Shards:         *shards,
		MCMode:         sc.MCMode(),
		Access:         sc.AccessMode(),
		Deterministic:  *det,
		SerialReads:    *serialRd,
		PerTenantQueue: *perTenant,
		RequestTimeout: *timeout,
	}
	base := *advertise
	if *join != "" {
		if base == "" {
			port := *addr
			if i := strings.LastIndex(port, ":"); i >= 0 {
				port = port[i:]
			}
			base = "http://127.0.0.1" + port
		}
		// Fabric members share the chip-sequence plan (replay must
		// reproduce ciphertext) and mint distinct token namespaces (tokens
		// travel with migrated shards).
		h := fnv.New32a()
		h.Write([]byte(base))
		opts.AdmissionLog = true
		opts.ChipSeqBase = server.DefaultChipSeqBase
		opts.TokenPrefix = fmt.Sprintf("n%08x-", h.Sum32())
		if *empty {
			opts.OwnedShards = []int{}
		}
	}
	svc := server.New(opts)
	var node *cluster.Node
	handler := http.Handler(svc.Mux())
	if *join != "" {
		node = cluster.NewNode(svc)
		node.SetBase(base)
		handler = node.Mux()
	}
	hs := &http.Server{Addr: *addr, Handler: handler}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	errc := make(chan error, 1)
	go func() { errc <- hs.ListenAndServe() }()
	fmt.Fprintf(os.Stderr, "fsencrd: serving %d shards (%s%s) on %s\n",
		*shards, sc, map[bool]string{true: ", deterministic", false: ""}[*det], *addr)
	if *join != "" {
		var tbl fsproto.ClusterTable
		if err := postCtl(*join+"/cluster/join", map[string]any{"node": base, "empty": *empty}, &tbl); err != nil {
			fail(1, fmt.Errorf("join %s: %w", *join, err))
		}
		fmt.Fprintf(os.Stderr, "fsencrd: joined %s as %s (table epoch %d)\n", *join, base, tbl.Epoch)
	}

	select {
	case err := <-errc:
		fail(1, err)
	case <-ctx.Done():
	}
	fmt.Fprintln(os.Stderr, "fsencrd: draining...")
	sctx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	if err := hs.Shutdown(sctx); err != nil {
		fmt.Fprintln(os.Stderr, "fsencrd: shutdown:", err)
	}
	// Shutdown does not see the /v1 connections the request loop took over.
	svc.Drain(sctx)
	if node != nil {
		node.Close()
	} else {
		svc.Close()
	}
	if err := <-errc; err != nil && !errors.Is(err, http.ErrServerClosed) {
		fail(1, err)
	}
	fmt.Fprintln(os.Stderr, "fsencrd: drained")
}

func loadgenMain(args []string) {
	fl := flag.NewFlagSet("loadgen", flag.ExitOnError)
	var (
		addr    = fl.String("addr", "http://127.0.0.1:9144", "server base URL")
		clients = fl.Int("clients", 8, "concurrent client sessions")
		tenants = fl.Int("tenants", 2, "distinct tenants (clients spread round-robin)")
		ops     = fl.Int("ops", 64, "data operations per client")
		mix     = fl.String("mix", "read:write", "read:write weights, e.g. 3:1 (read:write = 1:1)")
		seed    = fl.Uint64("seed", 1, "operation schedule seed")
		det     = fl.Bool("det", false, "assign schedule sequence numbers (server must run -det)")
		shards  = fl.Int("shards", 4, "with -det: the server's shard count")
		cross   = fl.Int("cross-every", 8, "every Nth op probes another tenant's file (0 disables)")
		statEv  = fl.Int("stat-every", 0, "every Nth op stats the client's own file (0 disables)")
		malice  = fl.Bool("malice", false, "run the malicious-client attack campaign instead of the load mix")
		asJSON  = fl.Bool("json", false, "emit the report as JSON instead of text")
		coord   = fl.String("coordinator", "", "route clients through this coordinator's placement table (cluster mode; incompatible with -det)")
	)
	fl.Parse(args)
	base := *addr
	if !strings.Contains(base, "://") {
		base = "http://" + base
	}
	if *malice {
		rep, err := fsclient.RunMalice(base)
		if err != nil {
			fail(1, err)
		}
		if *asJSON {
			enc := json.NewEncoder(os.Stdout)
			enc.SetIndent("", "  ")
			if err := enc.Encode(rep); err != nil {
				fail(1, err)
			}
		} else {
			fmt.Print(rep)
		}
		if !rep.Clean() {
			fail(3, fmt.Errorf("%d attacks got through, %d leaks", rep.Failed, rep.Leaks))
		}
		return
	}
	rep, err := fsclient.RunLoadgen(base, fsclient.LoadgenOptions{
		Clients:       *clients,
		Tenants:       *tenants,
		Ops:           *ops,
		Mix:           *mix,
		Seed:          *seed,
		Deterministic: *det,
		Shards:        *shards,
		CrossEvery:    *cross,
		StatEvery:     *statEv,
		Coordinator:   *coord,
	})
	if err != nil {
		fail(1, err)
	}
	if *asJSON {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(rep); err != nil {
			fail(1, err)
		}
	} else {
		fmt.Println(rep)
	}
	if rep.Leaks > 0 {
		fail(3, fmt.Errorf("%d cross-tenant leaks", rep.Leaks))
	}
	if rep.Errors > 0 {
		fail(1, fmt.Errorf("%d unexpected errors (first: %s)", rep.Errors, rep.FirstError))
	}
}

// postCtl posts v as JSON to a control-plane URL and decodes a 200
// response into out (nil discards it).
func postCtl(url string, v, out any) error {
	body, err := json.Marshal(v)
	if err != nil {
		return err
	}
	hc := &http.Client{Timeout: 60 * time.Second}
	resp, err := hc.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("%s: %s", resp.Status, strings.TrimSpace(string(data)))
	}
	if out == nil {
		return nil
	}
	return json.Unmarshal(data, out)
}

// printTable renders a placement table for the operator.
func printTable(t fsproto.ClusterTable) {
	fmt.Printf("cluster table epoch %d (%d shards)\n", t.Epoch, t.NShards)
	for _, p := range t.Placements {
		if p.Node == "" {
			fmt.Printf("  shard %d: unplaced\n", p.Shard)
			continue
		}
		fmt.Printf("  shard %d: %s (epoch %d)", p.Shard, p.Node, p.Epoch)
		if len(p.Replicas) > 0 {
			fmt.Printf(" replicas %s", strings.Join(p.Replicas, ","))
		}
		fmt.Println()
	}
}

func coordinatorMain(args []string) {
	fl := flag.NewFlagSet("coordinator", flag.ExitOnError)
	var (
		addr   = fl.String("addr", ":9100", "listen address")
		shards = fl.Int("shards", 4, "global shard count (every member must serve with the same -shards)")
		check  = fl.Duration("check-every", 0, "owner health sweep interval; dead owners with replicas fail over (0 disables)")
	)
	fl.Parse(args)
	coord := cluster.NewCoordinator(*shards)
	hs := &http.Server{Addr: *addr, Handler: coord.Mux()}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if *check > 0 {
		go func() {
			tick := time.NewTicker(*check)
			defer tick.Stop()
			for {
				select {
				case <-ctx.Done():
					return
				case <-tick.C:
					for _, s := range coord.CheckOwners() {
						fmt.Fprintf(os.Stderr, "fsencrd: shard %d failed over\n", s)
					}
				}
			}
		}()
	}
	errc := make(chan error, 1)
	go func() { errc <- hs.ListenAndServe() }()
	fmt.Fprintf(os.Stderr, "fsencrd: coordinating %d shards on %s\n", *shards, *addr)
	select {
	case err := <-errc:
		fail(1, err)
	case <-ctx.Done():
	}
	sctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	_ = hs.Shutdown(sctx)
}

func migrateMain(args []string) {
	fl := flag.NewFlagSet("migrate", flag.ExitOnError)
	var (
		coord = fl.String("coordinator", "http://127.0.0.1:9100", "coordinator URL")
		shard = fl.Int("shard", -1, "global shard index to migrate")
		to    = fl.String("to", "", "target node base URL")
	)
	fl.Parse(args)
	if *shard < 0 || *to == "" {
		fail(2, errors.New("migrate needs -shard and -to"))
	}
	var tbl fsproto.ClusterTable
	if err := postCtl(*coord+"/cluster/migrate", map[string]any{"shard": *shard, "to": *to}, &tbl); err != nil {
		fail(1, err)
	}
	printTable(tbl)
}

func replicateMain(args []string) {
	fl := flag.NewFlagSet("replicate", flag.ExitOnError)
	var (
		coord = fl.String("coordinator", "http://127.0.0.1:9100", "coordinator URL")
		shard = fl.Int("shard", -1, "global shard index to replicate")
		on    = fl.String("on", "", "replica node base URL")
	)
	fl.Parse(args)
	if *shard < 0 || *on == "" {
		fail(2, errors.New("replicate needs -shard and -on"))
	}
	var tbl fsproto.ClusterTable
	if err := postCtl(*coord+"/cluster/replicate", map[string]any{"shard": *shard, "on": *on}, &tbl); err != nil {
		fail(1, err)
	}
	printTable(tbl)
}

func main() {
	if len(os.Args) < 2 {
		fail(2, errors.New("usage: fsencrd serve|loadgen|coordinator|migrate|replicate [flags]"))
	}
	switch os.Args[1] {
	case "serve":
		serveMain(os.Args[2:])
	case "loadgen":
		loadgenMain(os.Args[2:])
	case "coordinator":
		coordinatorMain(os.Args[2:])
	case "migrate":
		migrateMain(os.Args[2:])
	case "replicate":
		replicateMain(os.Args[2:])
	default:
		fail(2, fmt.Errorf("unknown subcommand %q (serve|loadgen|coordinator|migrate|replicate)", os.Args[1]))
	}
}
