package obsplane_test

import (
	"bytes"
	"io"
	"net/http"
	"sync"
	"testing"

	"fsencr/internal/core"
	"fsencr/internal/obsplane"
	"fsencr/internal/obsplane/journal"
)

// liveReqs is a small cross-scheme batch with enough OTT and counter
// activity to populate both the telemetry sink and the security journal.
func liveReqs() []core.Request {
	var reqs []core.Request
	for _, w := range []string{"ycsb", "hashmap", "ctree"} {
		for _, s := range []core.Scheme{core.SchemeBaseline, core.SchemeFsEncr} {
			reqs = append(reqs, core.Request{Workload: w, Scheme: s, Ops: 150})
		}
	}
	return reqs
}

// runBatchBytes runs the batch at the given parallelism with fresh sinks
// and returns the merged telemetry snapshot (JSON) and journal (JSONL) as
// bytes.
func runBatchBytes(t *testing.T, parallelism int) ([]byte, []byte) {
	t.Helper()
	core.Parallelism = parallelism
	core.EnableTelemetry()
	core.EnableJournal()
	if _, err := core.RunBatch(liveReqs()); err != nil {
		t.Fatalf("batch at parallelism %d: %v", parallelism, err)
	}
	var snap, jrn bytes.Buffer
	if err := core.TelemetrySnapshot().WriteJSON(&snap); err != nil {
		t.Fatal(err)
	}
	if err := journal.WriteJSONL(&jrn, core.JournalEvents()); err != nil {
		t.Fatal(err)
	}
	return snap.Bytes(), jrn.Bytes()
}

// TestLiveReaderPreservesDeterminism runs the same batch serially and at
// parallelism 8 — the parallel run with the observability plane serving
// and a reader hammering every endpoint throughout — and asserts the
// merged exports are byte-identical. Run under `go test -race` this also
// proves the live plane reads cleanly against the per-run registries and
// the sink merges.
func TestLiveReaderPreservesDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("full batch comparison; skipped in -short")
	}
	defer func() { core.Parallelism = 0 }()

	serialSnap, serialJrn := runBatchBytes(t, 1)
	if len(core.JournalEvents()) == 0 {
		t.Fatal("batch produced no journal events; the comparison would be vacuous")
	}

	srv := obsplane.NewServer(obsplane.Options{
		// The live completion-order views, as fsencr-sim serves them: the
		// byte-equality below is asserted on the canonical input-order
		// exports, proving the live surface never contaminates them.
		Snapshot: core.LiveTelemetrySnapshot,
		Journal:  core.LiveJournalEvents,
	})
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		paths := []string{"/healthz", "/metrics", "/snapshot.json", "/trace.json", "/journal.jsonl", "/audit.jsonl"}
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			resp, err := http.Get("http://" + addr + paths[i%len(paths)])
			if err != nil {
				continue // server teardown races the last iteration
			}
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}
	}()

	parSnap, parJrn := runBatchBytes(t, 8)
	close(stop)
	wg.Wait()

	if !bytes.Equal(serialSnap, parSnap) {
		t.Errorf("telemetry snapshot diverged between serial and parallel runs under a live reader\nserial %d bytes, parallel %d bytes", len(serialSnap), len(parSnap))
	}
	if !bytes.Equal(serialJrn, parJrn) {
		t.Errorf("journal diverged between serial and parallel runs under a live reader\nserial:\n%s\nparallel:\n%s", serialJrn, parJrn)
	}
}
