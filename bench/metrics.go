package main

// metricDecl declares one metric: BENCHMARK.json is generated from these
// tables (-manifest), and the smoke test holds the two equal.
type metricDecl struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
	// Bound is set on end-to-end metrics only; the contract gives a
	// per-layer metric no bound key, and a zero bound is left out.
	Bound float64 `json:"bound,omitempty"`
	// exact marks a metric sourced only from the counted pass: it repeats
	// exactly for a seed, so -selfcheck compares it with ==.
	exact bool
}

// runSeconds is BENCHMARK.json's run_seconds: the timed window of one run.
const runSeconds = 12

// endToEnd is what a tenant or an operator of fsencrd sees. Every workload
// reports every one of them, so latency is over all ops of the window; the
// per-class split is in perLayer (bench.window_*).
var endToEnd = []metricDecl{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "ops_s", Unit: "ops/s", Better: "higher", Bound: 0.25},
	{Name: "p50_us", Unit: "us", Better: "lower", Bound: 0.25},
	{Name: "p95_us", Unit: "us", Better: "lower", Bound: 0.25},
	{Name: "cpu_us_per_op", Unit: "us", Better: "lower", Bound: 0.25},
	{Name: "rss_mb", Unit: "MiB", Better: "lower", Bound: 0.25},
	{Name: "sim_cycles_per_op", Unit: "cycles", Better: "lower", Bound: 0.05, exact: true},
}

func lower(name, unit string) metricDecl { return metricDecl{Name: name, Unit: unit, Better: "lower"} }
func higher(name, unit string) metricDecl {
	return metricDecl{Name: name, Unit: unit, Better: "higher"}
}
func exact(d metricDecl) metricDecl { d.exact = true; return d }

// perLayer is one module's numbers, named module.metric. *_us are medians
// of the probe replay; counts, fractions and *_cycles_mean come from the
// counted pass unless noted in README.md. A metric of a layer the workload
// never reaches reads 0.
var perLayer = []metricDecl{
	lower("fsclient.read_us", "us"),
	lower("fsclient.write_us", "us"),
	lower("fsclient.read_self_us", "us"),
	lower("fsclient.write_self_us", "us"),
	lower("fsclient.allocs_per_op", "count"),
	lower("fsclient.conns_per_kop", "count"),

	exact(lower("fsproto.req_bytes_per_op", "B")),
	exact(lower("fsproto.resp_bytes_per_op", "B")),
	lower("fsproto.encode_us", "us"),
	lower("fsproto.decode_us", "us"),

	lower("server.read_us", "us"),
	lower("server.write_us", "us"),
	lower("server.read_self_us", "us"),
	lower("server.write_self_us", "us"),
	lower("server.contended_write_us", "us"),
	lower("server.handler_us", "us"),
	higher("server.fast_read_frac", "ratio"),
	lower("server.busy_per_kop", "count"),
	lower("server.queue_wait_cycles_mean", "cycles"),
	exact(lower("server.service_cycles_mean", "cycles")),
	lower("server.allocs_per_op", "count"),

	lower("cluster.forward_us", "us"),
	exact(lower("cluster.forwarded_frac", "ratio")),
	exact(lower("cluster.log_records_per_op", "count")),
	lower("cluster.migrate_s", "s"),
	lower("cluster.migrate_us_per_record", "us"),

	lower("kernel.read_us", "us"),
	lower("kernel.write_us", "us"),
	lower("kernel.read_self_us", "us"),
	lower("kernel.write_self_us", "us"),
	exact(lower("kernel.page_faults_per_kop", "count")),

	lower("kvstore.get_us", "us"),
	lower("kvstore.put_us", "us"),
	lower("kvstore.get_self_us", "us"),
	lower("kvstore.put_self_us", "us"),
	exact(lower("kvstore.get_cycles_mean", "cycles")),
	exact(lower("kvstore.put_cycles_mean", "cycles")),

	exact(lower("machine.nc_page_reads_per_op", "count")),
	exact(lower("machine.nt_page_writes_per_op", "count")),
	exact(lower("machine.flushes_per_op", "count")),
	exact(lower("machine.read_miss_cycles_mean", "cycles")),

	lower("memctrl.read_us", "us"),
	lower("memctrl.write_us", "us"),
	lower("memctrl.read_self_us", "us"),
	lower("memctrl.write_self_us", "us"),
	exact(lower("memctrl.reads_per_op", "count")),
	exact(lower("memctrl.writes_per_op", "count")),
	exact(higher("memctrl.meta_hit_frac", "ratio")),
	exact(higher("memctrl.ott_hit_frac", "ratio")),
	exact(lower("memctrl.stoploss_persists_per_op", "count")),
	exact(lower("memctrl.reencryptions_per_kop", "count")),
	exact(lower("memctrl.write_queue_stalls_per_kop", "count")),
	exact(lower("memctrl.read_cycles_mean", "cycles")),
	exact(lower("memctrl.write_accept_cycles_mean", "cycles")),

	lower("aesctr.page_pads_us", "us"),

	lower("merkle.update_flush_us", "us"),
	exact(lower("merkle.updates_per_op", "count")),
	exact(lower("merkle.flushes_per_op", "count")),
	exact(lower("merkle.verifies_per_op", "count")),
	exact(lower("merkle.dirty_leaves_per_flush_mean", "count")),

	exact(higher("ott.table_hit_frac", "ratio")),
	exact(lower("ott.region_probes_per_kop", "count")),

	lower("pcm.access_page_us", "us"),
	exact(lower("pcm.reads_per_op", "count")),
	exact(lower("pcm.writes_per_op", "count")),
	exact(higher("pcm.row_hit_frac", "ratio")),
	exact(lower("pcm.bank_conflicts_per_op", "count")),
	exact(lower("pcm.queue_delay_cycles_mean", "cycles")),

	exact(lower("audit.records_per_op", "count")),

	lower("telemetry.snapshot_us", "us"),

	lower("bench.window_read_p50_us", "us"),
	lower("bench.window_write_p50_us", "us"),
	lower("bench.residual_us", "us"),
	lower("bench.trace_overhead_frac", "ratio"),
	lower("bench.fail_frac", "ratio"),
	exact(lower("bench.corrupt_frac", "ratio")),
}

// manifest is BENCHMARK.json.
type manifest struct {
	Command    []string       `json:"command"`
	Paths      []string       `json:"paths"`
	RunSeconds int            `json:"run_seconds"`
	Workloads  []workloadDecl `json:"workloads"`
	EndToEnd   []metricDecl   `json:"end_to_end"`
	PerLayer   []metricDecl   `json:"per_layer"`
}

type workloadDecl struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

func buildManifest() manifest {
	m := manifest{
		Command:    []string{"bash", "bench/run.sh"},
		Paths:      []string{"bench"},
		RunSeconds: runSeconds,
		EndToEnd:   endToEnd,
		PerLayer:   perLayer,
	}
	for _, w := range workloads {
		m.Workloads = append(m.Workloads, workloadDecl{w.name, w.why})
	}
	return m
}
