// Command fsencr-sim runs Table II workloads under protection schemes on
// the simulated machine and prints their measurements.
//
// Usage:
//
//	fsencr-sim -workload ycsb -scheme fsencr -ops 2500
//	fsencr-sim -list
//	fsencr-sim -workload dax2 -scheme baseline -ops 100000 -metacache 262144 -v
//	fsencr-sim -workload ycsb,hashmap,ctree -scheme baseline,fsencr -parallel 4
//
// -workload and -scheme accept comma-separated lists; the cross product
// of (workload × scheme) is executed as one batch on the parallel
// experiment runner and printed in input order. Each simulation boots its
// own system, so results are identical at any -parallel value.
//
// With -serve the process additionally runs the live observability plane
// while the batch executes:
//
//	fsencr-sim -workload ycsb,hashmap -scheme fsencr -serve :9143 -linger
//	curl localhost:9143/metrics        # Prometheus scrape
//	curl localhost:9143/snapshot.json  # live merged snapshot, spans included
//	curl localhost:9143/journal.jsonl  # security-event journal
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"fsencr/internal/config"
	"fsencr/internal/core"
	"fsencr/internal/obsplane"
	"fsencr/internal/obsplane/journal"
	"fsencr/internal/workloads"
)

// writeFileWith streams one exporter's output into path.
func writeFileWith(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func main() {
	var (
		workload  = flag.String("workload", "ycsb", "Table II workload name(s), comma separated")
		scheme    = flag.String("scheme", "fsencr", "protection scheme(s), comma separated: plain|baseline|fsencr|swencr")
		ops       = flag.Int("ops", 0, "timed operations per thread (0 = workload's bench default)")
		seed      = flag.Uint64("seed", 1, "workload RNG seed")
		metacache = flag.Int("metacache", 0, "metadata cache size in bytes (0 = Table III default)")
		parallel  = flag.Int("parallel", 0, "max concurrent simulations (0 = one per CPU)")
		list      = flag.Bool("list", false, "list available workloads and exit")
		verbose   = flag.Bool("v", false, "print the per-op breakdown")

		metricsOut = flag.String("metrics-out", "", "write the batch's merged telemetry metrics in Prometheus text format to this file")
		traceOut   = flag.String("trace-out", "", "write the batch's spans as Chrome trace-event JSON (chrome://tracing) to this file")
		journalOut = flag.String("journal-out", "", "write the batch's merged security-event journal as JSONL to this file")

		serve  = flag.String("serve", "", "serve the live observability plane on this address (e.g. :9143) while the batch runs")
		linger = flag.Bool("linger", false, "with -serve: keep serving after the batch completes, until interrupted")
	)
	flag.Parse()
	core.Parallelism = *parallel
	if *metricsOut != "" || *traceOut != "" || *serve != "" {
		core.EnableTelemetry()
	}
	if *journalOut != "" || *serve != "" {
		core.EnableJournal()
	}

	if *list {
		fmt.Println(core.TableII())
		return
	}

	fail := func(code int, err error) {
		fmt.Fprintln(os.Stderr, "fsencr-sim:", err)
		os.Exit(code)
	}

	var schemes []core.Scheme
	for _, s := range strings.Split(*scheme, ",") {
		sc, err := core.ParseScheme(strings.TrimSpace(s))
		if err != nil {
			fail(2, err)
		}
		schemes = append(schemes, sc)
	}

	var cfg *config.Config
	if *metacache != 0 {
		c := config.Default()
		c.Security.MetadataCacheSize = *metacache
		cfg = &c
	}

	// Build the (workload × scheme) batch, validating names up front.
	var reqs []core.Request
	var descs []*workloads.Workload
	for _, name := range strings.Split(*workload, ",") {
		name = strings.TrimSpace(name)
		w, err := workloads.Lookup(name)
		if err != nil {
			fail(2, err)
		}
		n := *ops
		if n == 0 {
			n = w.BenchOps
		}
		for _, sc := range schemes {
			reqs = append(reqs, core.Request{Workload: name, Scheme: sc, Ops: n, Seed: *seed, Cfg: cfg})
			descs = append(descs, w)
		}
	}

	var srv *obsplane.Server
	if *serve != "" {
		srv = obsplane.NewServer(obsplane.Options{
			Snapshot: core.LiveTelemetrySnapshot,
			Journal:  core.LiveJournalEvents,
		})
		addr, err := srv.Start(*serve)
		if err != nil {
			fail(1, err)
		}
		fmt.Fprintf(os.Stderr, "fsencr-sim: observability plane on http://%s (/metrics /snapshot.json /trace.json /journal.jsonl /healthz /debug/pprof)\n", addr)
	}

	results, err := core.RunBatch(reqs)
	if err != nil {
		fail(1, err)
	}

	if *journalOut != "" {
		evs := core.JournalEvents()
		if err := writeFileWith(*journalOut, func(w io.Writer) error {
			return journal.WriteJSONL(w, evs)
		}); err != nil {
			fail(1, err)
		}
	}

	if *metricsOut != "" || *traceOut != "" {
		snap := core.TelemetrySnapshot()
		if *metricsOut != "" {
			if err := writeFileWith(*metricsOut, snap.WritePrometheus); err != nil {
				fail(1, err)
			}
		}
		if *traceOut != "" {
			if err := writeFileWith(*traceOut, snap.WriteChromeTrace); err != nil {
				fail(1, err)
			}
		}
	}

	for i, res := range results {
		if i > 0 {
			fmt.Println()
		}
		w := descs[i]
		fmt.Printf("workload        %s (%s; %d threads; %d ops/thread)\n", res.Workload, w.Desc, w.Threads, res.Ops)
		fmt.Printf("scheme          %s\n", res.Scheme)
		fmt.Printf("cycles          %d\n", res.Cycles)
		fmt.Printf("cycles/op       %.1f\n", res.CyclesPerOp())
		fmt.Printf("nvm reads       %d\n", res.NVMReads)
		fmt.Printf("nvm writes      %d\n", res.NVMWrites)
		fmt.Printf("meta reads      %d\n", res.MetaReads)
		fmt.Printf("meta writebacks %d\n", res.MetaWritebacks)
		fmt.Printf("minor faults    %d\n", res.Faults)
		if *verbose {
			total := res.MetaHits + res.MetaMisses
			if total > 0 {
				fmt.Printf("metadata cache  %.2f%% hit (%d/%d)\n",
					100*float64(res.MetaHits)/float64(total), res.MetaHits, total)
			}
			if res.ReadLatMean > 0 {
				fmt.Printf("miss latency    mean %.1f cycles, max %d\n", res.ReadLatMean, res.ReadLatMax)
			}
		}
	}

	if srv != nil {
		if *linger {
			fmt.Fprintln(os.Stderr, "fsencr-sim: batch done; still serving (SIGINT/SIGTERM to exit)")
			sig := make(chan os.Signal, 1)
			signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
			<-sig
		}
		// Graceful drain: in-flight scrapes finish, bounded.
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			fmt.Fprintln(os.Stderr, "fsencr-sim: shutdown:", err)
		}
	}
}
