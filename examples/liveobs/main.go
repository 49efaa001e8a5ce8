// Liveobs: the observability plane watching a live batch. A PMEMKV
// workload sweep (baseline vs FsEncr, the Figure 8 comparison) runs on the
// parallel experiment runner while an in-process HTTP server exposes the
// telemetry sink and the security-event journal; the example plays the
// role of the operator, polling /healthz and /snapshot.json mid-run the
// way `curl` would against `fsencr-sim -serve`.
package main

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"time"

	"fsencr/internal/core"
	"fsencr/internal/obsplane"
	"fsencr/internal/telemetry"
)

func get(base, path string) []byte {
	resp, err := http.Get(base + path)
	if err != nil {
		panic(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		panic(err)
	}
	return body
}

// snapshot polls the live merged telemetry snapshot.
func snapshot(base string) *telemetry.Snapshot {
	snap := telemetry.NewSnapshot()
	if err := json.Unmarshal(get(base, "/snapshot.json"), snap); err != nil {
		panic(err)
	}
	return snap
}

func main() {
	core.EnableTelemetry()
	core.EnableJournal()

	srv := obsplane.NewServer(obsplane.Options{
		Snapshot: core.LiveTelemetrySnapshot,
		Journal:  core.LiveJournalEvents,
	})
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		panic(err)
	}
	defer srv.Close()
	base := "http://" + addr
	fmt.Printf("observability plane on %s\n", base)

	// The Figure 8 batch: every PMEMKV workload under baseline and FsEncr.
	var reqs []core.Request
	for _, w := range core.PMEMKVWorkloads {
		for _, s := range []core.Scheme{core.SchemeBaseline, core.SchemeFsEncr} {
			reqs = append(reqs, core.Request{Workload: w, Scheme: s, Ops: 400})
		}
	}
	done := make(chan error, 1)
	go func() {
		_, err := core.RunBatch(reqs)
		done <- err
	}()

	// Poll the plane while the batch runs, like a dashboard would: the
	// snapshot is live, so the change since the previous poll is ours to
	// compute.
	var prevReads uint64
	var snap *telemetry.Snapshot
	for running := true; running; {
		select {
		case err := <-done:
			if err != nil {
				panic(err)
			}
			running = false
		case <-time.After(100 * time.Millisecond):
		}
		fmt.Printf("healthz: %s", get(base, "/healthz"))
		snap = snapshot(base)
		reads := snap.Counters["pcm.reads"]
		fmt.Printf("snapshot: %d runs merged, %d pcm reads (+%d since last poll)\n",
			snap.Runs, reads, reads-prevReads)
		prevReads = reads
	}

	evs := core.JournalEvents()
	fmt.Printf("batch done: %d runs, %d security-journal events\n", snap.Runs, len(evs))
	for i, e := range evs {
		if i == 5 {
			fmt.Printf("  ... %d more\n", len(evs)-5)
			break
		}
		fmt.Printf("  cycle=%-8d %-18s group=%d file=%d\n", e.Cycle, e.Type, e.Group, e.File)
	}
}
