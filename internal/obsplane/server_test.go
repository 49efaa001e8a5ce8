package obsplane

import (
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"testing"

	"fsencr/internal/obsplane/journal"
	"fsencr/internal/telemetry"
)

// fakeSource is a mutable telemetry source standing in for the core sink.
type fakeSource struct {
	reads uint64
	evs   []journal.Event
}

func (f *fakeSource) snapshot() *telemetry.Snapshot {
	// Built through a real registry so histogram metrics (bucket layout,
	// count/sum series) flow exactly as the core sink produces them.
	reg := telemetry.New()
	reg.Counter("pcm.reads").Add(f.reads)
	reg.Counter("merkle.flushes").Add(7)
	reg.Histogram("merkle.dirty_leaves_per_flush").Observe(64)
	return reg.Snapshot()
}

func get(t *testing.T, url string) (int, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("GET %s: read body: %v", url, err)
	}
	return resp.StatusCode, string(body)
}

func TestServerEndpoints(t *testing.T) {
	src := &fakeSource{reads: 42, evs: []journal.Event{
		{Seq: 0, Cycle: 9, Type: journal.OTTOpen, Group: 1, File: 2},
	}}
	srv := NewServer(Options{
		Snapshot: src.snapshot,
		Journal:  func() []journal.Event { return src.evs },
	})
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	base := "http://" + addr

	code, body := get(t, base+"/healthz")
	if code != http.StatusOK || !strings.Contains(body, `"status":"ok"`) {
		t.Fatalf("/healthz: %d %q", code, body)
	}

	_, body = get(t, base+"/metrics")
	if !strings.Contains(body, "fsencr_pcm_reads 42") {
		t.Errorf("/metrics missing live counter:\n%s", body)
	}
	if !strings.Contains(body, "fsencr_span_drops_total 0") {
		t.Errorf("/metrics missing span-drops series:\n%s", body)
	}
	if !strings.Contains(body, "fsencr_merkle_flushes 7") {
		t.Errorf("/metrics missing merkle flush counter:\n%s", body)
	}
	if !strings.Contains(body, "fsencr_merkle_dirty_leaves_per_flush_sum 64") ||
		!strings.Contains(body, "fsencr_merkle_dirty_leaves_per_flush_count 1") {
		t.Errorf("/metrics missing merkle dirty-leaves histogram:\n%s", body)
	}

	// /snapshot.json is the live capture: each fetch sees the source's
	// current state.
	snapshot := func() *telemetry.Snapshot {
		_, body := get(t, base+"/snapshot.json")
		var snap telemetry.Snapshot
		if err := json.Unmarshal([]byte(body), &snap); err != nil {
			t.Fatalf("/snapshot.json: %v\n%s", err, body)
		}
		return &snap
	}
	snap := snapshot()
	if snap.Counters["pcm.reads"] != 42 || snap.Counters["merkle.flushes"] != 7 ||
		snap.Histograms["merkle.dirty_leaves_per_flush"].Sum != 64 {
		t.Fatalf("/snapshot.json: %+v", snap)
	}
	src.reads = 100
	if snap := snapshot(); snap.Counters["pcm.reads"] != 100 {
		t.Fatalf("/snapshot.json after the source advanced: %+v", snap)
	}

	_, body = get(t, base+"/trace.json")
	if !strings.Contains(body, `"traceEvents"`) {
		t.Errorf("/trace.json not a Chrome trace:\n%s", body)
	}

	_, body = get(t, base+"/journal.jsonl")
	var ev journal.Event
	if err := json.Unmarshal([]byte(strings.TrimSpace(body)), &ev); err != nil {
		t.Fatalf("/journal.jsonl not JSONL: %v\n%s", err, body)
	}
	if ev.Type != journal.OTTOpen || ev.Cycle != 9 {
		t.Errorf("/journal.jsonl event: %+v", ev)
	}

	code, body = get(t, base+"/debug/pprof/")
	if code != http.StatusOK || !strings.Contains(body, "goroutine") {
		t.Errorf("/debug/pprof/: %d\n%s", code, body)
	}
}

func TestServerNilSources(t *testing.T) {
	srv := NewServer(Options{})
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	base := "http://" + addr
	for _, path := range []string{"/healthz", "/metrics", "/snapshot.json", "/trace.json", "/journal.jsonl", "/audit.jsonl"} {
		if code, _ := get(t, base+path); code != http.StatusOK {
			t.Errorf("%s with nil sources: %d", path, code)
		}
	}
}
