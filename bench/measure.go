package main

import (
	"context"
	"fmt"
	"os"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"fsencr/internal/server"
	"fsencr/internal/telemetry"
)

// failure is the first failing op of a phase, kept for result.json.
type failure struct {
	Phase     string `json:"phase"`
	Op        string `json:"op"`
	Error     string `json:"error"`
	RequestID string `json:"request_id,omitempty"`
}

func describe(phase string, o op, r result) *failure {
	f := &failure{Phase: phase, Op: fmt.Sprintf("%s client=%d idx=%d version=%d", o.class, o.client, o.idx, o.version), RequestID: r.reqID}
	switch {
	case r.err != nil:
		f.Error = r.err.Error()
	case r.bad:
		f.Error = "bytes differ from the last acknowledged write"
	}
	return f
}

// sample is one completed op of a timed window.
type sample struct {
	at    time.Duration // start, relative to the window start
	dur   time.Duration
	class opClass
}

// windowResult is one timed window over one stack.
type windowResult struct {
	samples   []sample
	length    time.Duration
	attempted int64
	failed    int64
	first     *failure
	cpu       time.Duration // process user+sys over the window
}

// callers is how many goroutines (= connections) drive a window.
func callers() int { return min(2, runtime.NumCPU()) }

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// resetPeakRSS restarts the kernel's peak-RSS watermark, so a run that
// follows others in one process (the full set) reports its own peak.
func resetPeakRSS() {
	// Best effort: where the file is not writable the peak stays process-wide.
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// peakRSSMiB reads the process's peak resident set (VmHWM).
func peakRSSMiB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, _ := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			return kb / 1024
		}
	}
	return 0
}

// drive runs the closed loop for d: each caller goroutine issues its
// clients' ops one at a time and waits for each reply. With record false
// (warm-up) nothing is kept.
func (st *stack) drive(phase string, d time.Duration, record bool) windowResult {
	g := callers()
	call := st.httpCaller()
	parts := make([]windowResult, g)
	var wg sync.WaitGroup
	cpu0 := cpuTime()
	start := time.Now()
	for gi := 0; gi < g; gi++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			part := &parts[gi]
			scratch := make([]byte, st.spec.unit)
			var mine []*clientState
			for c := gi; c < len(st.states); c += g {
				mine = append(mine, st.states[c])
			}
			for n := 0; ; n++ {
				t0 := time.Now()
				at := t0.Sub(start)
				if at >= d {
					return
				}
				o := mine[n%len(mine)].next()
				r := call(o, scratch)
				part.attempted++
				if r.failed() {
					part.failed++
					if part.first == nil {
						part.first = describe(phase, o, r)
					}
				} else if record {
					part.samples = append(part.samples, sample{at: at, dur: r.dur, class: o.class})
				}
			}
		}()
	}
	wg.Wait()
	out := windowResult{length: d, cpu: cpuTime() - cpu0}
	for _, p := range parts {
		out.samples = append(out.samples, p.samples...)
		out.attempted += p.attempted
		out.failed += p.failed
		if out.first == nil {
			out.first = p.first
		}
	}
	return out
}

// quantile returns the q-quantile of sorted durations in microseconds.
func quantile(sorted []time.Duration, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	return float64(sorted[int(q*float64(len(sorted)-1))]) / 1e3
}

func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := slices.Clone(v)
	slices.Sort(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// sliceStats are one slice's throughput and latency quantiles.
type sliceStats struct {
	opsPerSec           float64
	p50, p95, p99, p999 float64
	n                   int
}

// slicesOf cuts a window into n equal slices by op start time and
// summarises the ops matching keep.
func (wr windowResult) slicesOf(n int, keep func(sample) bool) []sliceStats {
	width := wr.length / time.Duration(n)
	durs := make([][]time.Duration, n)
	for _, s := range wr.samples {
		if i := int(s.at / width); i < n && keep(s) {
			durs[i] = append(durs[i], s.dur)
		}
	}
	out := make([]sliceStats, n)
	for i, d := range durs {
		slices.Sort(d)
		out[i] = sliceStats{
			opsPerSec: float64(len(d)) / width.Seconds(),
			p50:       quantile(d, 0.50), p95: quantile(d, 0.95), p99: quantile(d, 0.99), p999: quantile(d, 0.999),
			n: len(d),
		}
	}
	return out
}

func anyClass(sample) bool { return true }

func onlyClass(c opClass) func(sample) bool {
	return func(s sample) bool { return s.class == c }
}

func pick(ss []sliceStats, f func(sliceStats) float64) []float64 {
	out := make([]float64, len(ss))
	for i, s := range ss {
		out[i] = f(s)
	}
	return out
}

// shardCounts is every deterministic number the shards expose, summed
// over the shards of the services scraped.
type shardCounts struct {
	stats  map[string]uint64
	tel    *telemetry.Snapshot
	cycles uint64 // sum of each shard's simulated clock
	logLen uint64 // admission-log records (0 where logging is off)
}

// scrape reads the owner's shard registries on their workers (DoSide), so
// deferred fast-read deltas are folded in first.
func scrape(svc *server.Service) (shardCounts, error) {
	out := shardCounts{stats: make(map[string]uint64), tel: telemetry.NewSnapshot()}
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	for _, sh := range svc.Shards() {
		var st map[string]uint64
		var snap *telemetry.Snapshot
		var cyc uint64
		err := sh.DoSide(ctx, func() {
			st = sh.Sys.M.Stats().Snapshot()
			snap = sh.Reg.Snapshot().WithoutSpans()
			cyc = uint64(sh.Sys.M.MaxCoreTime())
		})
		if err != nil {
			return out, fmt.Errorf("scrape shard %d: %w", sh.ID(), err)
		}
		for k, v := range st {
			out.stats[k] += v
		}
		out.tel.Merge(snap)
		out.cycles += cyc
		n, err := svc.LogLen(ctx, sh.ID())
		if err != nil {
			return out, fmt.Errorf("log length of shard %d: %w", sh.ID(), err)
		}
		out.logLen += n
	}
	return out, nil
}

// countedResult is the deterministic pass: deltas over the op batches
// only (verification sweeps between batches are excluded), plus the sweep
// verdict.
type countedResult struct {
	n          int
	stats      map[string]uint64
	tel        *telemetry.Snapshot
	cycles     uint64
	logLen     uint64
	reqBytes   int64
	respBytes  int64
	forwarded  uint64
	swept      int64
	corrupt    int64
	opsFailed  int64
	first      *failure
	streamHash uint64 // FNV of the op stream, for the determinism test
}

// sweepEvery is the op count between verification sweeps.
const sweepEvery = 2048

// counted runs n ops of the seeded stream from one caller over HTTP on a
// serial-reads stack, reading back every written unit each sweepEvery ops.
func (st *stack) counted(seed uint64, n int) (countedResult, error) {
	res := countedResult{n: n, stats: make(map[string]uint64), tel: telemetry.NewSnapshot()}
	for _, cs := range st.states {
		cs.reseed(seed)
		cs.track = true
	}
	call := st.httpCaller()
	scratch := make([]byte, st.spec.unit)
	fwd := func() uint64 { return st.entry.Registry().Counter("server.forwarded_total").Value() }
	hash := uint64(14695981039346656037)
	for done := 0; done < n; {
		before, err := scrape(st.owner)
		if err != nil {
			return res, err
		}
		req0, resp0, fwd0 := st.wire.reqBytes.Load(), st.wire.respBytes.Load(), fwd()
		batch := min(sweepEvery, n-done)
		for i := 0; i < batch; i++ {
			o := st.states[(done+i)%len(st.states)].next()
			hash = (hash ^ (uint64(o.class)<<40 | uint64(o.client)<<32 | uint64(o.idx))) * 1099511628211
			if r := call(o, scratch); r.failed() {
				res.opsFailed++
				if res.first == nil {
					res.first = describe("counted", o, r)
				}
			}
		}
		done += batch
		after, err := scrape(st.owner)
		if err != nil {
			return res, err
		}
		for k, v := range after.stats {
			res.stats[k] += v - before.stats[k]
		}
		res.tel.Merge(telemetry.Diff(before.tel, after.tel))
		res.cycles += after.cycles - before.cycles
		res.logLen += after.logLen - before.logLen
		res.reqBytes += st.wire.reqBytes.Load() - req0
		res.respBytes += st.wire.respBytes.Load() - resp0
		res.forwarded += fwd() - fwd0
		st.sweep(call, scratch, &res)
	}
	res.streamHash = hash
	return res, nil
}

// sweep reads back every unit written since the last sweep.
func (st *stack) sweep(call caller, scratch []byte, res *countedResult) {
	for _, cs := range st.states {
		for _, idx := range cs.takeDirty() {
			o := op{class: classRead, client: cs.client, idx: idx}
			r := call(o, scratch)
			res.swept++
			if r.failed() {
				res.corrupt++
				if res.first == nil {
					res.first = describe("sweep", o, r)
				}
			}
		}
	}
}

// ratio is a/b, or 0 when b is 0 (a layer the workload never reached).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// histMean is the mean of every histogram in snap whose name matches.
func histMean(snap *telemetry.Snapshot, match func(string) bool) float64 {
	var sum, count uint64
	for name, h := range snap.Histograms {
		if match(name) {
			sum += h.Sum
			count += h.Count
		}
	}
	return ratio(float64(sum), float64(count))
}

func named(name string) func(string) bool { return func(s string) bool { return s == name } }

func tenantHist(metric string) func(string) bool {
	return func(s string) bool { return strings.HasPrefix(s, "server.tenant.") && strings.HasSuffix(s, "."+metric) }
}
