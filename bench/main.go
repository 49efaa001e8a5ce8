// Command bench is the layered service benchmark of fsencrd: it boots the
// real serving stack in-process behind a loopback HTTP listener, drives
// four named workloads through the product client, checks every reply
// against an oracle, and reports end-to-end metrics (--trace 0) or
// per-layer metrics (--trace 1) by name. See README.md.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"time"
)

func main() {
	var (
		workload  = flag.String("workload", "", "run one workload and print the contract's result line (default: all four, both passes)")
		seed      = flag.Uint64("seed", 1, "workload seed: the same seed generates the same requests")
		seconds   = flag.Int("seconds", runSeconds, "timed window of an end-to-end run, in seconds")
		trace     = flag.Int("trace", 0, "with -workload: 0 reports the end-to-end metrics, 1 the per-layer metrics")
		outDir    = flag.String("out", "bench/out", "directory for result.json and trace-<workload>.json")
		selfcheck = flag.Bool("selfcheck", false, "run two full sets back to back and fail if they disagree by more than the bounds")
		printMan  = flag.Bool("manifest", false, "print BENCHMARK.json generated from the metric tables and exit")
	)
	flag.Parse()
	if *printMan {
		data, _ := json.MarshalIndent(buildManifest(), "", "  ") // plain structs of strings and numbers always marshal
		fmt.Println(string(data))
		return
	}
	if err := run(*workload, *seed, *seconds, *trace, *outDir, *selfcheck); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

func run(workload string, seed uint64, seconds, trace int, outDir string, selfcheck bool) error {
	if seconds < 1 {
		return errors.New("-seconds must be at least 1")
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	cfg := defaultConfig(seconds, outDir)
	switch {
	case selfcheck:
		return runSelfcheck(seed, cfg)
	case workload == "":
		_, err := runSet(seed, cfg, true)
		return err
	}
	spec := workloadByName(workload)
	if spec == nil {
		return fmt.Errorf("unknown workload %q", workload)
	}
	var r *runResult
	var err error
	switch trace {
	case 0:
		r, err = runEndToEnd(spec, seed, cfg)
	case 1:
		r, err = runPerLayer(spec, seed, cfg)
	default:
		return fmt.Errorf("-trace must be 0 or 1, got %d", trace)
	}
	if err != nil {
		return err
	}
	report(r)
	if err := writeResult(cfg.outDir, seed, []*runResult{r}); err != nil {
		return err
	}
	return printContractLine(r)
}

// declsFor returns the table a run's metrics are declared in.
func declsFor(trace int) []metricDecl {
	if trace == 0 {
		return endToEnd
	}
	return perLayer
}

// report prints every metric of a run by name with its unit, and a WARN
// for anything that makes the run incorrect.
func report(r *runResult) {
	fmt.Printf("== %s  seed=%d  trace=%d  attempted=%d failed=%d\n", r.Workload, r.Seed, r.Trace, r.Attempted, r.Failed)
	for _, d := range declsFor(r.Trace) {
		fmt.Printf("%-36s %16.4f %s\n", d.Name, r.Metrics[d.Name], d.Unit)
	}
	for _, name := range sortedKeys(r.Extra) {
		fmt.Printf("%-36s %16.4f (ungated)\n", name, r.Extra[name])
	}
	if r.FirstFailure != nil {
		f := r.FirstFailure
		fmt.Printf("WARN %s: %d of %d ops failed; first in %s: %s: %s [req %s]\n", r.Workload, r.Failed, r.Attempted, f.Phase, f.Op, f.Error, f.RequestID)
	}
	for _, p := range r.Problems {
		fmt.Printf("WARN %s: %s\n", r.Workload, p)
	}
}

func sortedKeys(m map[string]float64) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	return keys
}

// validate checks that a run carries exactly its declared metrics, all
// finite: anything else is a malformed result, which is an error.
func validate(r *runResult) error {
	decls := declsFor(r.Trace)
	if len(r.Metrics) != len(decls) {
		return fmt.Errorf("%s: %d metrics measured, %d declared", r.Workload, len(r.Metrics), len(decls))
	}
	for _, d := range decls {
		v, ok := r.Metrics[d.Name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("%s: metric %s missing or not finite", r.Workload, d.Name)
		}
	}
	if r.Attempted < 1 {
		return fmt.Errorf("%s: no op attempted", r.Workload)
	}
	return nil
}

// printContractLine prints the driver's result object as the last line.
func printContractLine(r *runResult) error {
	if err := validate(r); err != nil {
		return err
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted int64            `json:"attempted"`
		Failed    int64            `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, make(map[string]value)}
	for _, d := range declsFor(r.Trace) {
		out.Metrics[d.Name] = value{r.Metrics[d.Name], d.Unit}
	}
	data, err := json.Marshal(out)
	if err != nil {
		return err
	}
	fmt.Println(string(data))
	return nil
}

// runSet runs every workload in both modes.
func runSet(seed uint64, cfg runConfig, write bool) ([]*runResult, error) {
	var all []*runResult
	for _, spec := range workloads {
		for _, f := range []func(*workloadSpec, uint64, runConfig) (*runResult, error){runEndToEnd, runPerLayer} {
			r, err := f(spec, seed, cfg)
			if err != nil {
				return nil, fmt.Errorf("%s: %w", spec.name, err)
			}
			if err := validate(r); err != nil {
				return nil, err
			}
			report(r)
			all = append(all, r)
		}
	}
	if !write {
		return all, nil
	}
	return all, writeResult(cfg.outDir, seed, all)
}

// runSelfcheck runs two full sets and compares them: end-to-end metrics
// within their bounds, counted-pass metrics exactly.
func runSelfcheck(seed uint64, cfg runConfig) error {
	first, err := runSet(seed, cfg, false)
	if err != nil {
		return err
	}
	second, err := runSet(seed, cfg, true)
	if err != nil {
		return err
	}
	bad := 0
	fmt.Printf("\n%-12s %-36s %14s %14s %9s %7s\n", "workload", "metric", "first", "second", "rel.diff", "bound")
	for i, a := range first {
		b := second[i]
		for _, d := range declsFor(a.Trace) {
			va, vb := a.Metrics[d.Name], b.Metrics[d.Name]
			rel := ratio(math.Abs(va-vb), math.Abs(va))
			verdict := ""
			switch {
			case d.exact && va != vb:
				verdict = "  DIFFERS (must repeat exactly)"
			case d.Bound > 0 && !d.exact && rel > d.Bound:
				verdict = "  EXCEEDS BOUND"
			}
			if verdict != "" {
				bad++
			}
			if d.Bound > 0 || verdict != "" {
				fmt.Printf("%-12s %-36s %14.4f %14.4f %8.2f%% %6.0f%%%s\n", a.Workload, d.Name, va, vb, rel*100, d.Bound*100, verdict)
			}
		}
	}
	if bad > 0 {
		return fmt.Errorf("selfcheck: %d metrics disagree between two runs of the same code", bad)
	}
	fmt.Println("selfcheck: two sets agree within the bounds; every counted-pass metric is identical")
	return nil
}

// hostBlock describes where the numbers were taken.
type hostBlock struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	CPUModel   string `json:"cpu_model"`
	Kernel     string `json:"kernel"`
	Commit     string `json:"commit"`
	Time       string `json:"time"`
}

// cpuModel is the first "model name" of /proc/cpuinfo.
func cpuModel() string {
	data, _ := os.ReadFile("/proc/cpuinfo") // absent off Linux: reported as unknown
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// commit resolves .git/HEAD of the working directory by hand: the driver's
// checkout is not a repository, and the benchmark starts no process.
func commit() string {
	head, err := os.ReadFile(".git/HEAD")
	if err != nil {
		return "unknown"
	}
	ref, isRef := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !isRef {
		return ref
	}
	if sha, err := os.ReadFile(filepath.Join(".git", ref)); err == nil {
		return strings.TrimSpace(string(sha))
	}
	return ref
}

func host() hostBlock {
	release, _ := os.ReadFile("/proc/sys/kernel/osrelease") // absent off Linux: left empty
	return hostBlock{
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
		CPUModel: cpuModel(), Kernel: strings.TrimSpace(string(release)),
		Commit: commit(), Time: time.Now().UTC().Format(time.RFC3339),
	}
}

func writeResult(dir string, seed uint64, runs []*runResult) error {
	data, err := json.MarshalIndent(struct {
		Host hostBlock    `json:"host"`
		Seed uint64       `json:"seed"`
		Runs []*runResult `json:"runs"`
	}{host(), seed, runs}, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, "result.json"), append(data, '\n'), 0o644)
}
