// Command fsencr-trace records memory-access traces from Table II workloads
// and replays them against machines in any protection mode — the standard
// trace-driven simulation workflow.
//
// Usage:
//
//	fsencr-trace record -workload ycsb -ops 1000 -o ycsb.trace
//	fsencr-trace info   -i ycsb.trace
//	fsencr-trace replay -i ycsb.trace -scheme baseline
//	fsencr-trace replay -i ycsb.trace -scheme fsencr
package main

import (
	"flag"
	"fmt"
	"os"

	"fsencr/internal/config"
	"fsencr/internal/core"
	"fsencr/internal/kernel"
	"fsencr/internal/machine"
	"fsencr/internal/memctrl"
	"fsencr/internal/memtrace"
	"fsencr/internal/workloads"
)

func main() {
	if len(os.Args) < 2 {
		usage()
	}
	switch os.Args[1] {
	case "record":
		record(os.Args[2:])
	case "info":
		info(os.Args[2:])
	case "replay":
		replay(os.Args[2:])
	default:
		usage()
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, "usage: fsencr-trace record|info|replay [flags]")
	os.Exit(2)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "fsencr-trace:", err)
	os.Exit(1)
}

func record(args []string) {
	fs := flag.NewFlagSet("record", flag.ExitOnError)
	workload := fs.String("workload", "hashmap", "Table II workload to record")
	ops := fs.Int("ops", 1000, "operations per thread")
	seed := fs.Uint64("seed", 1, "workload RNG seed")
	out := fs.String("o", "out.trace", "output trace file")
	fs.Parse(args)

	w, err := workloads.Lookup(*workload)
	if err != nil {
		fatal(err)
	}
	sys := kernel.Boot(config.Default(), core.SchemeFsEncr.MCMode(), kernel.ModeDAX)
	env := workloads.NewEnv(sys, w.Threads, *ops, true, *seed)
	if err := w.Setup(env); err != nil {
		fatal(err)
	}
	rec := &memtrace.Recorder{}
	sys.M.SetTracer(rec) // measured phase only
	if err := w.Run(env); err != nil {
		fatal(err)
	}
	f, err := os.Create(*out)
	if err != nil {
		fatal(err)
	}
	defer f.Close()
	if err := memtrace.Write(f, rec.Events); err != nil {
		fatal(err)
	}
	s := memtrace.Summarize(rec.Events)
	fmt.Printf("recorded %d events (%d reads, %d writes, %d flushes) from %s to %s\n",
		s.Events, s.Reads, s.Writes, s.Flushes, *workload, *out)
}

func load(path string) []memtrace.Event {
	f, err := os.Open(path)
	if err != nil {
		fatal(err)
	}
	defer f.Close()
	events, err := memtrace.Read(f)
	if err != nil {
		fatal(err)
	}
	return events
}

func info(args []string) {
	fs := flag.NewFlagSet("info", flag.ExitOnError)
	in := fs.String("i", "out.trace", "input trace file")
	fs.Parse(args)
	s := memtrace.Summarize(load(*in))
	fmt.Printf("events        %d\n", s.Events)
	fmt.Printf("reads         %d (%d bytes)\n", s.Reads, s.BytesRead)
	fmt.Printf("writes        %d (%d bytes)\n", s.Writes, s.BytesWrite)
	fmt.Printf("flushes       %d\n", s.Flushes)
	fmt.Printf("fences        %d\n", s.Fences)
	fmt.Printf("cores         %d\n", s.Cores)
	fmt.Printf("unique pages  %d\n", s.UniquePages)
	fmt.Printf("DF accesses   %d\n", s.DFAccesses)
}

func replay(args []string) {
	fs := flag.NewFlagSet("replay", flag.ExitOnError)
	in := fs.String("i", "out.trace", "input trace file")
	scheme := fs.String("scheme", "fsencr", "plain|baseline|fsencr")
	fs.Parse(args)

	var mode memctrl.Mode
	switch *scheme {
	case "plain":
	case "baseline":
		mode = memctrl.Mode{MemEncryption: true}
	case "fsencr":
		mode = memctrl.Mode{MemEncryption: true, FileEncryption: true}
	default:
		fatal(fmt.Errorf("unknown scheme %q", *scheme))
	}

	events := load(*in)
	m := machine.New(config.Default(), mode)
	memtrace.Prepare(m, events)
	cycles, err := memtrace.Replay(m, events)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("replayed %d events under %s\n", len(events), *scheme)
	fmt.Printf("cycles     %d\n", cycles)
	fmt.Printf("nvm reads  %d\n", m.MC.PCM.Reads())
	fmt.Printf("nvm writes %d\n", m.MC.PCM.Writes())
}
