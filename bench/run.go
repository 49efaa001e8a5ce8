package main

import (
	"fmt"
	"runtime/debug"
	"time"

	"fsencr/internal/config"
	"fsencr/internal/telemetry"
)

// runConfig sizes one run. The defaults are the contract's; the smoke test
// shrinks every field.
type runConfig struct {
	// window is the timed window of an end-to-end run, split evenly over
	// two independently booted stacks; warmup precedes each half.
	window time.Duration
	warmup time.Duration
	// slices is how many slices the whole window is cut into; throughput
	// and percentiles are medians over them.
	slices int
	// countedN is the op count of the end-to-end run's counted pass.
	countedN int
	// layerWindow, layerCountedN and probeK size the per-layer run: its
	// short untraced window, its counted pass and its probe replay.
	layerWindow   time.Duration
	layerCountedN int
	probeK        int
	// scale divides the workload geometry (1 outside the smoke test).
	scale int
	// outDir receives result.json and the trace files.
	outDir string
}

func defaultConfig(seconds int, outDir string) runConfig {
	w := time.Duration(seconds) * time.Second
	return runConfig{
		window: w, warmup: 1500 * time.Millisecond, slices: 6, countedN: 4096,
		layerWindow: w / 3, layerCountedN: 16384, probeK: 4096,
		scale: 1, outDir: outDir,
	}
}

// phaseTimes is wall time per phase, for the host block of result.json.
type phaseTimes map[string]float64

func (p phaseTimes) since(name string, t0 time.Time) { p[name] += time.Since(t0).Seconds() }

// runResult is one workload's run in one mode.
type runResult struct {
	Workload  string             `json:"workload"`
	Seed      uint64             `json:"seed"`
	Trace     int                `json:"trace"`
	Correct   bool               `json:"correct"`
	Attempted int64              `json:"attempted"`
	Failed    int64              `json:"failed"`
	Metrics   map[string]float64 `json:"metrics"`
	// Extra is printed and stored but ungated (p999 swings 2x run to run).
	Extra map[string]float64 `json:"extra,omitempty"`
	// StreamHash fingerprints the counted pass's op stream.
	StreamHash   string     `json:"stream_hash,omitempty"`
	FirstFailure *failure   `json:"first_failure,omitempty"`
	Problems     []string   `json:"problems,omitempty"`
	Phases       phaseTimes `json:"phase_seconds"`
}

func newRunResult(w *workloadSpec, seed uint64, trace int) *runResult {
	return &runResult{Workload: w.name, Seed: seed, Trace: trace, Correct: true,
		Metrics: make(map[string]float64), Extra: make(map[string]float64), Phases: make(phaseTimes)}
}

func (r *runResult) count(attempted, failed int64, first *failure) {
	r.Attempted += attempted
	r.Failed += failed
	if r.FirstFailure == nil {
		r.FirstFailure = first
	}
	if failed > 0 {
		r.Correct = false
	}
}

func (r *runResult) countPass(p passResult) { r.count(p.attempted, p.failed, p.first) }

func (r *runResult) problem(format string, args ...any) {
	r.Problems = append(r.Problems, fmt.Sprintf(format, args...))
	r.Correct = false
}

// finish closes a stack after its end-of-workload checks and hands its
// memory back, so the next stack's peak RSS is its own.
func (r *runResult) finish(st *stack) {
	if err := st.epilogue(); err != nil {
		r.problem("%v", err)
	}
	st.close()
	debug.FreeOSMemory()
}

// runCounted boots a serial-reads stack and runs the counted pass on it.
func runCounted(w *workloadSpec, seed uint64, n int, r *runResult) (countedResult, float64, error) {
	t0 := time.Now()
	st, err := setup(w, stackOptions{counted: true})
	if err != nil {
		return countedResult{}, 0, err
	}
	r.Phases.since("setup", t0)
	t0 = time.Now()
	cr, err := st.counted(seed, n)
	r.Phases.since("counted", t0)
	if err != nil {
		st.close()
		return cr, 0, err
	}
	r.count(int64(n), cr.opsFailed, cr.first)
	r.count(cr.swept, cr.corrupt, cr.first)
	r.finish(st)
	return cr, st.setupSeconds, nil
}

// runEndToEnd is the --trace 0 run: three timed set-ups; the first stack
// carries the counted pass, the other two each half of the timed window.
func runEndToEnd(spec *workloadSpec, seed uint64, cfg runConfig) (*runResult, error) {
	w := spec.scaled(cfg.scale)
	r := newRunResult(w, seed, 0)
	debug.FreeOSMemory()
	resetPeakRSS()
	cr, setupS, err := runCounted(w, seed, cfg.countedN, r)
	if err != nil {
		return nil, err
	}
	setups := []float64{setupS}

	const halves = 2
	half := cfg.window / halves
	perHalf := cfg.slices / halves
	var all []sliceStats
	var cpu time.Duration
	var good int64
	for h := 0; h < halves; h++ {
		t0 := time.Now()
		st, err := setup(w, stackOptions{})
		if err != nil {
			return nil, err
		}
		r.Phases.since("setup", t0)
		setups = append(setups, st.setupSeconds)
		for _, cs := range st.states {
			// Each half replays its own stretch of inputs.
			cs.reseed(seed + uint64(h)<<32)
		}
		t0 = time.Now()
		st.drive("warmup", cfg.warmup, false)
		r.Phases.since("warmup", t0)
		t0 = time.Now()
		wr := st.drive("window", half, true)
		r.Phases.since("window", t0)
		r.count(wr.attempted, wr.failed, wr.first)
		all = append(all, wr.slicesOf(perHalf, anyClass)...)
		cpu += wr.cpu
		good += int64(len(wr.samples))
		r.finish(st)
	}
	m := r.Metrics
	m["setup_s"] = median(setups)
	m["ops_s"] = median(pick(all, func(s sliceStats) float64 { return s.opsPerSec }))
	m["p50_us"] = median(pick(all, func(s sliceStats) float64 { return s.p50 }))
	m["p95_us"] = median(pick(all, func(s sliceStats) float64 { return s.p95 }))
	m["cpu_us_per_op"] = ratio(float64(cpu)/1e3, float64(good))
	m["rss_mb"] = peakRSSMiB()
	m["sim_cycles_per_op"] = float64(cr.cycles) / float64(cr.n)
	r.Extra["p99_us"] = median(pick(all, func(s sliceStats) float64 { return s.p99 }))
	r.Extra["p999_us"] = median(pick(all, func(s sliceStats) float64 { return s.p999 }))
	r.Extra["samples_beyond_p99_per_slice"] = median(pick(all, func(s sliceStats) float64 { return float64(s.n) / 100 }))
	r.StreamHash = fmt.Sprintf("%016x", cr.streamHash)
	return r, nil
}

// runPerLayer is the --trace 1 run: a short untraced window for the
// host-registry numbers, the probe replay on the same stack, then the
// counted pass on a fresh serial-reads stack.
func runPerLayer(spec *workloadSpec, seed uint64, cfg runConfig) (*runResult, error) {
	w := spec.scaled(cfg.scale)
	r := newRunResult(w, seed, 1)
	m := r.Metrics
	for _, d := range perLayer {
		m[d.Name] = 0
	}

	t0 := time.Now()
	st, err := setup(w, stackOptions{})
	if err != nil {
		return nil, err
	}
	r.Phases.since("setup", t0)
	m["cluster.migrate_s"] = st.migrateSeconds
	m["cluster.migrate_us_per_record"] = ratio(st.migrateSeconds*1e6, float64(st.migrateRecords))

	for _, cs := range st.states {
		cs.reseed(seed)
	}
	t0 = time.Now()
	st.drive("warmup", cfg.warmup, false)
	r.Phases.since("warmup", t0)
	host0, entry0, accepts0 := hostSnapshot(st), st.entry.Registry().Snapshot(), st.wire.accepts.Load()
	shards0, err := scrape(st.owner)
	if err != nil {
		st.close()
		return nil, err
	}
	t0 = time.Now()
	wr := st.drive("window", cfg.layerWindow, true)
	r.Phases.since("window", t0)
	host := telemetry.Diff(host0, hostSnapshot(st))
	entry := telemetry.Diff(entry0, st.entry.Registry().Snapshot())
	shards1, err := scrape(st.owner)
	if err != nil {
		st.close()
		return nil, err
	}
	// Only concurrent callers queue, so the wait comes from the window; the
	// counted pass has one caller and would always read 0.
	m["server.queue_wait_cycles_mean"] = histMean(telemetry.Diff(shards0.tel, shards1.tel), tenantHist("queue_wait_cycles"))
	r.count(wr.attempted, wr.failed, wr.first)
	ops := float64(wr.attempted)
	var reads float64
	for _, s := range wr.samples {
		if s.class == classRead {
			reads++
		}
	}
	m["server.handler_us"] = histMean(entry, named("server.request_ns")) / 1e3
	m["server.fast_read_frac"] = ratio(float64(host.Counters["server.fast_reads_total"]), reads)
	m["server.busy_per_kop"] = ratio(float64(host.Counters["server.busy_rejections_total"])*1e3, ops)
	m["fsclient.conns_per_kop"] = ratio(float64(st.wire.accepts.Load()-accepts0)*1e3, ops)
	m["bench.fail_frac"] = ratio(float64(wr.failed), ops)
	slicesN := max(cfg.slices/2, 1)
	m["bench.window_read_p50_us"] = median(pick(wr.slicesOf(slicesN, onlyClass(classRead)), func(s sliceStats) float64 { return s.p50 }))
	m["bench.window_write_p50_us"] = median(pick(wr.slicesOf(slicesN, onlyClass(classWrite)), func(s sliceStats) float64 { return s.p50 }))

	t0 = time.Now()
	if err := runProbes(st, seed, cfg, r); err != nil {
		st.close()
		return nil, err
	}
	r.Phases.since("probes", t0)
	r.finish(st)

	cr, _, err := runCounted(w, seed, cfg.layerCountedN, r)
	if err != nil {
		return nil, err
	}
	countedMetrics(cr, m)
	return r, nil
}

// hostSnapshot merges the host-side registries of every service of the
// stack (node A and node B on fabric_hop): a read is fast, or a request
// refused, wherever it lands.
func hostSnapshot(st *stack) *telemetry.Snapshot {
	out := telemetry.NewSnapshot()
	for _, svc := range st.services {
		out.Merge(svc.Registry().Snapshot().WithoutSpans())
	}
	return out
}

// runProbes replays the first probeK ops of the stream at every layer's
// public entry point in turn and fills the *_us metrics.
func runProbes(st *stack, seed uint64, cfg runConfig, r *runResult) error {
	w, m, k := st.spec, r.Metrics, cfg.probeK
	tr := newTracer()
	scratch := make([]byte, 2*w.unit)
	states := st.states[:]
	reads, writes := classRead, classWrite

	// fsclient: the product client over HTTP, span recording on and off in
	// alternating blocks.
	top := replay(tr, "fsclient", seed, k, states, st.httpCaller(), scratch, true)
	r.countPass(top)
	m["fsclient.read_us"], m["fsclient.write_us"] = top.us(reads), top.us(writes)
	m["fsclient.allocs_per_op"] = top.allocs
	m["bench.trace_overhead_frac"] = top.traceOverhead()

	// cluster: the same ops at the owner's own URL take no hop.
	if w.fabric {
		clients, err := st.ownerClients()
		if err != nil {
			return err
		}
		noHop := replay(tr, "fsclient_no_hop", seed, k, states, st.httpCallerVia(clients), scratch, false)
		r.countPass(noHop)
		m["cluster.forward_us"] = top.all() - noHop.all()
	}

	// server: the service's exported methods, one caller, then two.
	direct, err := st.directCaller()
	if err != nil {
		return err
	}
	srv := replay(tr, "server", seed, k, states, direct, scratch, false)
	r.countPass(srv)
	m["server.read_us"], m["server.write_us"] = srv.us(reads), srv.us(writes)
	m["server.allocs_per_op"] = srv.allocs
	cont, err := st.contendedWrites(seed, k)
	if err != nil {
		return err
	}
	r.countPass(cont)
	m["server.contended_write_us"] = cont.us(writes)
	m["telemetry.snapshot_us"] = medianOf(15, func(int) { st.owner.MetricsSnapshot() })

	// kernel or kvstore: client 0's object on a bare kernel.Boot system.
	sys, err := newBareSystem(w)
	if err != nil {
		return fmt.Errorf("bare system: %w", err)
	}
	midLayer, midName := "kernel", [2]string{"kernel.read", "kernel.write"}
	if w.kv {
		midLayer, midName = "kvstore", [2]string{"kvstore.get", "kvstore.put"}
	}
	mid := replay(tr, midLayer, seed, k, []*clientState{sys.cs}, sys.call, scratch, false)
	r.countPass(mid)
	m[midName[0]+"_us"], m[midName[1]+"_us"] = mid.us(reads), mid.us(writes)

	// memctrl: page ops go through the page entry points of a bare
	// controller; smaller ops are priced as the controller lines the bare
	// system moved per op times what a line costs on that same controller.
	var mc [2]float64
	if w.unit == config.PageSize {
		ctrl := newBareCtrl(w)
		p := replay(tr, "memctrl", seed, k, []*clientState{ctrl.cs}, ctrl.callPage, scratch, false)
		r.countPass(p)
		mc = [2]float64{p.us(reads), p.us(writes)}
	} else {
		lineRead, lineWrite, err := sys.lineTimes(seed, k/4)
		if err != nil {
			return err
		}
		for c := range mc {
			n := float64(sys.ops[c])
			mc[c] = ratio(float64(sys.lines[c][0]), n)*lineRead + ratio(float64(sys.lines[c][1]), n)*lineWrite
		}
	}
	m["memctrl.read_us"], m["memctrl.write_us"] = mc[0], mc[1]

	// Self time: a layer's probe minus the next probe down, so the four
	// self times of a class sum to the fsclient probe exactly. A class the
	// workload never issues has all-zero probes and so all-zero self times.
	for c, class := range []opClass{reads, writes} {
		m["fsclient."+class.String()+"_self_us"] = top.us(class) - srv.us(class)
		m["server."+class.String()+"_self_us"] = srv.us(class) - mid.us(class)
		m[midName[c]+"_self_us"] = mid.us(class) - mc[c]
		m["memctrl."+class.String()+"_self_us"] = mc[c]
	}
	// The residual is what two concurrent clients add over one caller, on
	// the class the workload mostly issues.
	if w.readPct >= 50 {
		m["bench.residual_us"] = m["bench.window_read_p50_us"] - m["fsclient.read_us"]
	} else {
		m["bench.residual_us"] = m["bench.window_write_p50_us"] - m["fsclient.write_us"]
	}

	microProbes(w, seed, k/2, m)
	if err := codecProbe(w, seed, k/2, m); err != nil {
		return err
	}
	return tr.write(cfg.outDir, w.name, seed)
}

// countedMetrics derives every count, fraction and simulated-cycle mean
// from the counted pass's deltas.
func countedMetrics(cr countedResult, m map[string]float64) {
	n := float64(cr.n)
	st := func(name string) float64 { return float64(cr.stats[name]) }
	ctr := func(name string) float64 { return float64(cr.tel.Counters[name]) }
	hist := func(name string) float64 { return histMean(cr.tel, named(name)) }
	frac := func(hit, miss float64) float64 { return ratio(hit, hit+miss) }

	m["fsproto.req_bytes_per_op"] = float64(cr.reqBytes) / n
	m["fsproto.resp_bytes_per_op"] = float64(cr.respBytes) / n
	m["server.service_cycles_mean"] = histMean(cr.tel, tenantHist("service_cycles"))
	m["cluster.forwarded_frac"] = float64(cr.forwarded) / n
	m["cluster.log_records_per_op"] = float64(cr.logLen) / n
	m["kernel.page_faults_per_kop"] = ctr("kernel.page_faults") * 1e3 / n
	m["kvstore.get_cycles_mean"] = hist("kvstore.get_cycles")
	m["kvstore.put_cycles_mean"] = hist("kvstore.put_cycles")
	m["machine.nc_page_reads_per_op"] = st("machine.nc_page_reads") / n
	m["machine.nt_page_writes_per_op"] = st("machine.nt_page_writes") / n
	m["machine.flushes_per_op"] = st("machine.flushes") / n
	m["machine.read_miss_cycles_mean"] = hist("machine.read_miss_cycles")
	m["memctrl.reads_per_op"] = st("mc.reads") / n
	m["memctrl.writes_per_op"] = st("mc.writes") / n
	m["memctrl.meta_hit_frac"] = frac(st("mc.meta_hits"), st("mc.meta_misses"))
	m["memctrl.ott_hit_frac"] = frac(st("mc.ott_hits"), st("mc.ott_misses"))
	m["memctrl.stoploss_persists_per_op"] = st("mc.stoploss_persists") / n
	m["memctrl.reencryptions_per_kop"] = (st("mc.mem_reencryptions") + st("mc.file_reencryptions")) * 1e3 / n
	m["memctrl.write_queue_stalls_per_kop"] = st("mc.write_queue_stalls") * 1e3 / n
	m["memctrl.read_cycles_mean"] = hist("mc.read_cycles")
	m["memctrl.write_accept_cycles_mean"] = hist("mc.write_accept_cycles")
	m["merkle.updates_per_op"] = ctr("merkle.updates") / n
	m["merkle.flushes_per_op"] = ctr("merkle.flushes") / n
	m["merkle.verifies_per_op"] = ctr("merkle.verifies") / n
	m["merkle.dirty_leaves_per_flush_mean"] = hist("merkle.dirty_leaves_per_flush")
	m["ott.table_hit_frac"] = frac(ctr("ott.table_hits"), ctr("ott.table_misses"))
	m["ott.region_probes_per_kop"] = ctr("ott.region_probes") * 1e3 / n
	m["pcm.reads_per_op"] = st("pcm.reads") / n
	m["pcm.writes_per_op"] = st("pcm.writes") / n
	m["pcm.row_hit_frac"] = frac(st("pcm.row_hits"), st("pcm.row_misses"))
	m["pcm.bank_conflicts_per_op"] = st("pcm.bank_conflicts") / n
	m["pcm.queue_delay_cycles_mean"] = hist("pcm.queue_delay_cycles")
	m["audit.records_per_op"] = ctr("audit.records_total") / n
	m["bench.corrupt_frac"] = ratio(float64(cr.corrupt), float64(cr.swept))
}
