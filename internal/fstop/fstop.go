// Package fstop renders the fsencrd live operator view: a plain-text
// dashboard polled from the daemon's /snapshot.json endpoint (counters,
// gauges, retained traces). One frame shows the host-side request counters
// and rates, per-shard queue state, the per-tenant SLO plane (latency
// quantiles and error-budget burn), the tail sampler's kept/dropped
// accounting, and a waterfall of the slowest retained request traces. Everything derives from the same merged
// telemetry snapshot the bench harness exports, so what the operator sees
// is exactly what the canonical artifacts record.
package fstop

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"sort"
	"strings"
	"time"

	"fsencr/internal/telemetry"
)

// Options configures the dashboard.
type Options struct {
	// Base is the daemon's base URL, e.g. http://localhost:8080.
	Base string
	// Interval is the poll period (<= 0 means 2s).
	Interval time.Duration
	// Once renders a single frame and returns instead of looping.
	Once bool
	// Out receives rendered frames (nil means stdout).
	Out io.Writer
	// Client issues the polls (nil means http.DefaultClient).
	Client *http.Client
}

// maxTraces bounds how many slow-trace waterfalls one frame shows.
const maxTraces = 3

// clearScreen is the ANSI erase-and-home sequence used between frames.
const clearScreen = "\x1b[2J\x1b[H"

// Fetch polls one merged telemetry snapshot, retained spans included, from
// the daemon's live /snapshot.json.
func Fetch(c *http.Client, base string) (*telemetry.Snapshot, error) {
	resp, err := c.Get(strings.TrimRight(base, "/") + "/snapshot.json")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("fstop: /snapshot.json: %s", resp.Status)
	}
	s := telemetry.NewSnapshot()
	if err := json.NewDecoder(resp.Body).Decode(s); err != nil {
		return nil, fmt.Errorf("fstop: decode snapshot: %w", err)
	}
	return s, nil
}

// Run polls and renders until the process is killed (or once, with
// Options.Once). Poll failures in loop mode are shown and retried; in
// once mode they are returned.
func Run(opts Options) error {
	if opts.Interval <= 0 {
		opts.Interval = 2 * time.Second
	}
	if opts.Out == nil {
		opts.Out = os.Stdout
	}
	c := opts.Client
	if c == nil {
		c = http.DefaultClient
	}
	var prev *telemetry.Snapshot
	var prevAt time.Time
	for {
		cur, err := Fetch(c, opts.Base)
		now := time.Now()
		if err != nil {
			if opts.Once {
				return err
			}
			fmt.Fprintf(opts.Out, "fsencr-top: %v (retrying in %s)\n", err, opts.Interval)
		} else {
			var dt time.Duration
			if prev != nil {
				dt = now.Sub(prevAt)
			}
			if !opts.Once {
				fmt.Fprint(opts.Out, clearScreen)
			}
			Render(opts.Out, prev, cur, dt, opts.Base)
			prev, prevAt = cur, now
		}
		if opts.Once {
			return nil
		}
		time.Sleep(opts.Interval)
	}
}

// Render writes one dashboard frame. prev (the previous frame's snapshot)
// and dt feed the rate columns; both may be zero for the first frame.
func Render(w io.Writer, prev, cur *telemetry.Snapshot, dt time.Duration, base string) {
	fmt.Fprintf(w, "fsencr-top — %s\n\n", base)
	renderTotals(w, prev, cur, dt)
	renderShards(w, cur)
	renderTenants(w, cur)
	renderTraces(w, cur)
}

// rate formats a per-second delta between two counter readings.
func rate(prev *telemetry.Snapshot, cur uint64, name string, dt time.Duration) string {
	if prev == nil || dt <= 0 {
		return "-"
	}
	p := prev.Counters[name]
	if p > cur {
		p = cur // sink reset; clamp like telemetry.Diff
	}
	return fmt.Sprintf("%.1f/s", float64(cur-p)/dt.Seconds())
}

func renderTotals(w io.Writer, prev, cur *telemetry.Snapshot, dt time.Duration) {
	reqs := cur.Counters["server.requests_total"]
	fmt.Fprintf(w, "requests  %8d  (%s)    errors %d    busy %d    auth_failures %d\n",
		reqs, rate(prev, reqs, "server.requests_total", dt),
		cur.Counters["server.request_errors_total"],
		cur.Counters["server.busy_rejections_total"],
		cur.Counters["server.auth_failures_total"])
	kept, dropped := cur.Counters["trace.kept_total"], cur.Counters["trace.dropped_total"]
	fmt.Fprintf(w, "traces    kept %d  dropped %d  (of %d sampled)    span_drops %d\n\n",
		kept, dropped, kept+dropped, cur.SpanDrops)
}

func renderShards(w io.Writer, cur *telemetry.Snapshot) {
	var ids []int
	for name := range cur.Gauges {
		var id int
		if n, _ := fmt.Sscanf(name, "server.shard%d.queue_depth", &id); n == 1 &&
			name == fmt.Sprintf("server.shard%d.queue_depth", id) {
			ids = append(ids, id)
		}
	}
	if len(ids) == 0 {
		return
	}
	sort.Ints(ids)
	fmt.Fprintf(w, "%-6s %8s %10s %12s\n", "SHARD", "DEPTH", "SERVED", "AUDIT_HEAD")
	for _, id := range ids {
		fmt.Fprintf(w, "%-6d %8d %10d %12d\n", id,
			cur.Gauges[fmt.Sprintf("server.shard%d.queue_depth", id)],
			cur.Counters[fmt.Sprintf("server.shard%d.served_total", id)],
			cur.Gauges[fmt.Sprintf("server.shard%d.audit_head_seq", id)])
	}
	fmt.Fprintln(w)
}

// ms formats a nanosecond gauge as milliseconds.
func ms(ns uint64) string { return fmt.Sprintf("%.2fms", float64(ns)/1e6) }

func renderTenants(w io.Writer, cur *telemetry.Snapshot) {
	const pre, suf = "server.tenant.", ".slo_burn_milli"
	var names []string
	for name := range cur.Gauges {
		if strings.HasPrefix(name, pre) && strings.HasSuffix(name, suf) {
			names = append(names, name[len(pre):len(name)-len(suf)])
		}
	}
	if len(names) == 0 {
		return
	}
	sort.Strings(names)
	fmt.Fprintf(w, "%-12s %10s %10s %10s %10s %8s %8s\n",
		"TENANT", "P50", "P99", "P999", "BURN", "GOOD", "BAD")
	for _, n := range names {
		p := pre + n + "."
		// Burn is in milli-units of the error budget: 1000 = burning
		// exactly at the budget rate.
		fmt.Fprintf(w, "%-12s %10s %10s %10s %9.2fx %8d %8d\n", n,
			ms(cur.Gauges[p+"p50_ns"]), ms(cur.Gauges[p+"p99_ns"]), ms(cur.Gauges[p+"p999_ns"]),
			float64(cur.Gauges[p+"slo_burn_milli"])/1000,
			cur.Counters[p+"slo_good_total"], cur.Counters[p+"slo_bad_total"])
	}
	fmt.Fprintln(w)
}

// renderTraces shows the slowest retained request traces as indented
// waterfalls: the root request span, then its descendants (queue wait,
// kernel syscalls, controller page ops, PCM bank access) ordered by start
// cycle, each offset-annotated against the root.
func renderTraces(w io.Writer, cur *telemetry.Snapshot) {
	byTrace := make(map[uint64][]telemetry.Span)
	var roots []telemetry.Span
	for _, sp := range cur.Spans {
		if sp.TraceID == 0 {
			continue
		}
		byTrace[sp.TraceID] = append(byTrace[sp.TraceID], sp)
		if sp.Cat == "request" && sp.ParentID == 0 && sp.SpanID != 0 {
			roots = append(roots, sp)
		}
	}
	if len(roots) == 0 {
		return
	}
	sort.Slice(roots, func(i, j int) bool {
		if roots[i].Dur != roots[j].Dur {
			return roots[i].Dur > roots[j].Dur
		}
		return roots[i].TraceID < roots[j].TraceID
	})
	fmt.Fprintf(w, "SLOWEST TRACES (%d retained)\n", len(roots))
	if len(roots) > maxTraces {
		roots = roots[:maxTraces]
	}
	for _, r := range roots {
		fmt.Fprintf(w, "trace %016x  %-10s %d cycles\n", r.TraceID, r.Name, r.Dur)
		kids := make(map[uint64][]telemetry.Span)
		for _, sp := range byTrace[r.TraceID] {
			if sp.SpanID == r.SpanID {
				continue
			}
			kids[sp.ParentID] = append(kids[sp.ParentID], sp)
		}
		var emit func(parent uint64, depth int)
		emit = func(parent uint64, depth int) {
			cs := kids[parent]
			sort.Slice(cs, func(i, j int) bool {
				if cs[i].Start != cs[j].Start {
					return cs[i].Start < cs[j].Start
				}
				return cs[i].SpanID < cs[j].SpanID
			})
			for _, c := range cs {
				off := uint64(0)
				if c.Start > r.Start {
					off = c.Start - r.Start
				}
				fmt.Fprintf(w, "  %s%-8s %-18s +%-10d %d cycles\n",
					strings.Repeat("  ", depth), c.Cat, c.Name, off, c.Dur)
				emit(c.SpanID, depth+1)
			}
		}
		emit(r.SpanID, 0)
	}
}
