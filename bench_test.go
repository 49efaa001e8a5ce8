// Benchmark harness: one benchmark per table/figure of the paper's
// evaluation. Each benchmark regenerates its figure at full scale (the
// per-workload BenchOps of Table II) and reports the headline number the
// paper quotes as a custom metric, printing the full table via b.Logf
// (visible with `go test -bench=. -v`).
//
// Expected shapes (paper -> this reproduction): see EXPERIMENTS.md.
package fsencr_test

import (
	"sync"
	"testing"

	"fsencr/internal/core"
	"fsencr/internal/stats"
	"fsencr/internal/workloads"
)

// benchOps returns the full-scale op count for a workload group, using the
// registry's per-workload BenchOps (they are uniform within a group).
func benchOps(name string) int {
	w, err := workloads.Lookup(name)
	if err != nil {
		panic(err)
	}
	return w.BenchOps
}

// Figures 8-10 project the same runs; memoize them across benchmarks.
var (
	pmemkvOnce sync.Once
	pmemkvPrs  core.PairResults
	pmemkvErr  error

	synthOnce sync.Once
	synthPrs  core.PairResults
	synthErr  error
)

func pmemkvPairs(b *testing.B) core.PairResults {
	pmemkvOnce.Do(func() {
		// PMEMKV BenchOps differ between S (6000) and L (1500) variants;
		// RunGroupFunc takes the per-workload count and fans the whole
		// group out over the parallel runner.
		pmemkvPrs, pmemkvErr = core.RunGroupFunc(core.PMEMKVWorkloads,
			core.SchemeBaseline, core.SchemeFsEncr, benchOps, nil)
	})
	if pmemkvErr != nil {
		b.Fatal(pmemkvErr)
	}
	return pmemkvPrs
}

func synthPairs(b *testing.B) core.PairResults {
	synthOnce.Do(func() {
		synthPrs, synthErr = core.RunGroupFunc(core.SyntheticWorkloads,
			core.SchemeBaseline, core.SchemeFsEncr, benchOps, nil)
	})
	if synthErr != nil {
		b.Fatal(synthErr)
	}
	return synthPrs
}

// BenchmarkFig03SoftwareEncryption regenerates Figure 3: eCryptfs-style
// software encryption slowdown over plain ext4-dax on the Whisper suite.
// Paper: ~2.7x average, ~5x for YCSB.
func BenchmarkFig03SoftwareEncryption(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tb, ratios, err := core.Fig3(benchOps("ycsb"))
		if err != nil {
			b.Fatal(err)
		}
		b.Logf("\n%s", tb)
		b.ReportMetric(stats.Mean(ratios), "avg-slowdown-x")
		b.ReportMetric(ratios[0], "ycsb-slowdown-x")
	}
}

// BenchmarkFig08PMEMKVSlowdown regenerates Figure 8: FsEncr slowdown over
// the memory-encryption baseline on PMEMKV. Paper: single-digit percent,
// larger for large values and write-heavy workloads.
func BenchmarkFig08PMEMKVSlowdown(b *testing.B) {
	prs := pmemkvPairs(b)
	for i := 0; i < b.N; i++ {
		tb, ratios := core.Fig8(prs)
		b.Logf("\n%s", tb)
		b.ReportMetric((stats.Mean(ratios)-1)*100, "avg-slowdown-%")
	}
}

// BenchmarkFig09PMEMKVWrites regenerates Figure 9: normalized NVM writes.
func BenchmarkFig09PMEMKVWrites(b *testing.B) {
	prs := pmemkvPairs(b)
	for i := 0; i < b.N; i++ {
		tb, ratios := core.Fig9(prs)
		b.Logf("\n%s", tb)
		b.ReportMetric(stats.Mean(ratios), "avg-write-ratio")
	}
}

// BenchmarkFig10PMEMKVReads regenerates Figure 10: normalized NVM reads.
func BenchmarkFig10PMEMKVReads(b *testing.B) {
	prs := pmemkvPairs(b)
	for i := 0; i < b.N; i++ {
		tb, ratios := core.Fig10(prs)
		b.Logf("\n%s", tb)
		b.ReportMetric(stats.Mean(ratios), "avg-read-ratio")
	}
}

// BenchmarkFig11Whisper regenerates Figure 11 (slowdown, writes, reads on
// Whisper) plus the paper's headline 98.33% slowdown-reduction claim.
func BenchmarkFig11Whisper(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := core.Fig11(benchOps("ycsb"))
		if err != nil {
			b.Fatal(err)
		}
		b.Logf("\n%s\n%s\n%s", res.Slowdown, res.Writes, res.Reads)
		b.ReportMetric((stats.Mean(res.Ratios)-1)*100, "fsencr-slowdown-%")
		b.ReportMetric(res.Reduction*100, "slowdown-reduction-%")
	}
}

// BenchmarkFig12SyntheticSlowdown regenerates Figure 12. Paper: ~20%
// average across DAX-1..4.
func BenchmarkFig12SyntheticSlowdown(b *testing.B) {
	prs := synthPairs(b)
	for i := 0; i < b.N; i++ {
		tb, ratios := core.Fig12(prs)
		b.Logf("\n%s", tb)
		b.ReportMetric((stats.Mean(ratios)-1)*100, "avg-slowdown-%")
	}
}

// BenchmarkFig13SyntheticWrites regenerates Figure 13.
func BenchmarkFig13SyntheticWrites(b *testing.B) {
	prs := synthPairs(b)
	for i := 0; i < b.N; i++ {
		tb, ratios := core.Fig13(prs)
		b.Logf("\n%s", tb)
		b.ReportMetric(stats.Mean(ratios), "avg-write-ratio")
	}
}

// BenchmarkFig14SyntheticReads regenerates Figure 14.
func BenchmarkFig14SyntheticReads(b *testing.B) {
	prs := synthPairs(b)
	for i := 0; i < b.N; i++ {
		tb, ratios := core.Fig14(prs)
		b.Logf("\n%s", tb)
		b.ReportMetric(stats.Mean(ratios), "avg-read-ratio")
	}
}

// BenchmarkFig15CacheSensitivity regenerates Figure 15: FsEncr slowdown vs
// metadata cache size for Fillrandom-L, Hashmap and DAX-2. Paper: real
// workloads improve markedly with cache size, synthetic ones only slightly.
func BenchmarkFig15CacheSensitivity(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tb, series, err := core.Fig15(0)
		if err != nil {
			b.Fatal(err)
		}
		b.Logf("\n%s", tb)
		for name, pts := range series {
			if len(pts) > 0 {
				b.ReportMetric(pts[0]-pts[len(pts)-1], name+"-improvement-pp")
			}
		}
	}
}

// BenchmarkTableIIWorkloads runs every Table II workload once under FsEncr
// at a reduced op count, as an end-to-end throughput reference.
func BenchmarkTableIIWorkloads(b *testing.B) {
	for _, name := range workloads.Names() {
		name := name
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				r, err := core.Run(core.Request{Workload: name, Scheme: core.SchemeFsEncr, Ops: 300})
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(r.CyclesPerOp(), "sim-cycles/op")
			}
		})
	}
}

// BenchmarkAblationStopLoss sweeps the Osiris stop-loss bound (DESIGN.md
// ablation): eager persistence buys a smaller recovery window with more
// metadata writes.
func BenchmarkAblationStopLoss(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tb, err := core.AblationStopLoss("hashmap", 2000, []int{1, 2, 4, 8, 16})
		if err != nil {
			b.Fatal(err)
		}
		b.Logf("\n%s", tb)
	}
}

// BenchmarkAblationMerkleArity sweeps the integrity-tree fan-out.
func BenchmarkAblationMerkleArity(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tb, err := core.AblationMerkleArity("dax3", 4000)
		if err != nil {
			b.Fatal(err)
		}
		b.Logf("\n%s", tb)
	}
}

// BenchmarkAblationOTTSize stresses the Open Tunnel Table with 2048
// encrypted files across capacities from 64 to 1024 entries.
func BenchmarkAblationOTTSize(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tb, _, err := core.AblationOTTSize(2048, 40000, []core.OTTGeometry{
			{Banks: 1, PerBank: 64},
			{Banks: 2, PerBank: 128},
			{Banks: 8, PerBank: 128},
		})
		if err != nil {
			b.Fatal(err)
		}
		b.Logf("\n%s", tb)
	}
}

// BenchmarkAblationCachePartition compares the shared metadata cache with
// the partitioned organization of §III-D at equal capacity.
func BenchmarkAblationCachePartition(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tb, err := core.AblationCachePartition("hashmap", 2000)
		if err != nil {
			b.Fatal(err)
		}
		b.Logf("\n%s", tb)
	}
}
