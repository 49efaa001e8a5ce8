package fstop

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"fsencr/internal/core"
	"fsencr/internal/fsclient"
	"fsencr/internal/fsproto"
	"fsencr/internal/server"
	"fsencr/internal/telemetry"
)

// sampleSnapshot builds the shape /snapshot.json serves: host counters,
// shard and tenant gauges, and one retained request trace.
func sampleSnapshot() *telemetry.Snapshot {
	s := telemetry.NewSnapshot()
	s.Counters["server.requests_total"] = 120
	s.Counters["server.request_errors_total"] = 2
	s.Counters["trace.kept_total"] = 10
	s.Counters["trace.dropped_total"] = 30
	s.Counters["server.shard0.served_total"] = 80
	s.Counters["server.tenant.acme.slo_good_total"] = 99
	s.Counters["server.tenant.acme.slo_bad_total"] = 1
	s.Gauges["server.shard0.queue_depth"] = 3
	s.Gauges["server.shard0.audit_head_seq"] = 41
	s.Gauges["server.tenant.acme.p50_ns"] = 2_000_000
	s.Gauges["server.tenant.acme.p99_ns"] = 9_000_000
	s.Gauges["server.tenant.acme.p999_ns"] = 20_000_000
	s.Gauges["server.tenant.acme.slo_burn_milli"] = 500
	s.Spans = []telemetry.Span{
		{Cat: "request", Name: "write", Start: 100, Dur: 900, TraceID: 0xabc, SpanID: 1},
		{Cat: "request", Name: "queue_wait", Start: 100, Dur: 50, TraceID: 0xabc, SpanID: 2, ParentID: 1},
		{Cat: "kernel", Name: "write", Start: 150, Dur: 800, TraceID: 0xabc, SpanID: 3, ParentID: 1},
		{Cat: "pcm", Name: "access_page_write", Start: 400, Dur: 300, TraceID: 0xabc, SpanID: 4, ParentID: 3},
	}
	s.Runs = 1
	return s
}

// TestRenderFrame pins the dashboard's sections: totals, shard table,
// tenant SLO table, and an indented trace waterfall.
func TestRenderFrame(t *testing.T) {
	var out bytes.Buffer
	prev := telemetry.NewSnapshot()
	prev.Counters["server.requests_total"] = 20
	Render(&out, prev, sampleSnapshot(), 10*time.Second, "http://x:1")
	got := out.String()

	for _, want := range []string{
		"requests",
		"10.0/s", // (120-20)/10s
		"kept 10  dropped 30  (of 40 sampled)",
		"SHARD",
		"AUDIT_HEAD",
		"TENANT",
		"acme",
		"2.00ms",  // p50
		"9.00ms",  // p99
		"20.00ms", // p999
		"0.50x",   // burn 500 milli
		"SLOWEST TRACES (1 retained)",
		"trace 0000000000000abc",
		"queue_wait",
		"access_page_write",
	} {
		if !strings.Contains(got, want) {
			t.Errorf("frame missing %q:\n%s", want, got)
		}
	}
	// The pcm span nests two levels under the root: deeper indent than the
	// kernel span.
	kernelLine, pcmLine := "", ""
	for _, line := range strings.Split(got, "\n") {
		if strings.Contains(line, "kernel") {
			kernelLine = line
		}
		if strings.Contains(line, "pcm") {
			pcmLine = line
		}
	}
	if kernelLine == "" || pcmLine == "" {
		t.Fatalf("waterfall lines missing:\n%s", got)
	}
	indent := func(s string) int { return len(s) - len(strings.TrimLeft(s, " ")) }
	if indent(pcmLine) <= indent(kernelLine) {
		t.Errorf("pcm span not nested deeper than kernel:\n%q\n%q", kernelLine, pcmLine)
	}
}

// TestRunOncePolls drives Run in once mode against a fake daemon serving
// the one endpoint fsencr-top reads: /snapshot.json, spans included.
func TestRunOncePolls(t *testing.T) {
	hs := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/snapshot.json" {
			http.NotFound(w, r)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		if err := sampleSnapshot().WriteJSON(w); err != nil {
			t.Error(err)
		}
	}))
	defer hs.Close()

	var out bytes.Buffer
	if err := Run(Options{Base: hs.URL, Once: true, Out: &out}); err != nil {
		t.Fatalf("Run: %v", err)
	}
	for _, want := range []string{"acme", "requests       120", "SLOWEST TRACES", "access_page_write"} {
		if !strings.Contains(out.String(), want) {
			t.Fatalf("once-mode frame missing %q:\n%s", want, out.String())
		}
	}
	if strings.Contains(out.String(), clearScreen) {
		t.Fatal("once mode must not clear the screen")
	}
}

// TestFetchPlainSnapshot pins Fetch's decode of a snapshot body, spans
// included, and that a non-200 answer is an error.
func TestFetchPlainSnapshot(t *testing.T) {
	hs := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/snapshot.json" {
			http.NotFound(w, r)
			return
		}
		if err := sampleSnapshot().WriteJSON(w); err != nil {
			t.Error(err)
		}
	}))
	defer hs.Close()

	s, err := Fetch(http.DefaultClient, hs.URL+"/")
	if err != nil {
		t.Fatalf("Fetch: %v", err)
	}
	if s.Counters["server.requests_total"] != 120 || len(s.Spans) != 4 {
		t.Fatalf("plain-shape decode lost data: %+v", s)
	}
	if _, err := Fetch(http.DefaultClient, hs.URL+"/missing"); err == nil {
		t.Fatal("Fetch of a 404 succeeded")
	}
}

// TestFetchFollowsFsencrd polls a real fsencrd route set between requests:
// each frame must show the requests served since the one before it, and the
// retained trace of a request it has not seen yet.
func TestFetchFollowsFsencrd(t *testing.T) {
	svc := server.New(server.Options{
		Shards: 1,
		MCMode: core.SchemeFsEncr.MCMode(),
		Access: core.SchemeFsEncr.AccessMode(),
	})
	hs := httptest.NewServer(svc.Mux())
	defer func() { svc.Close(); hs.Close() }()

	roots := func(s *telemetry.Snapshot) int {
		n := 0
		for _, sp := range s.Spans {
			if sp.Cat == "request" && sp.ParentID == 0 && sp.SpanID != 0 {
				n++
			}
		}
		return n
	}
	before, err := Fetch(hs.Client(), hs.URL)
	if err != nil {
		t.Fatalf("first Fetch: %v", err)
	}

	// The client owns its connection, which the request loop takes over;
	// the polls ride a transport of their own.
	cl := fsclient.Dial(hs.URL)
	defer cl.Close()
	if err := cl.Login("acme", 1, "pw"); err != nil {
		t.Fatalf("login: %v", err)
	}
	if err := cl.Create(fsproto.CreateRequest{Name: "f.dat", Perm: 0600, Size: 8192, Encrypted: true}); err != nil {
		t.Fatalf("create: %v", err)
	}
	if err := cl.Write(fsproto.WriteRequest{Name: "f.dat", Data: make([]byte, 4096)}); err != nil {
		t.Fatalf("write: %v", err)
	}
	const sent = 3

	after, err := Fetch(hs.Client(), hs.URL)
	if err != nil {
		t.Fatalf("second Fetch: %v", err)
	}
	b, a := before.Counters["server.requests_total"], after.Counters["server.requests_total"]
	if a != b+sent {
		t.Fatalf("server.requests_total went %d -> %d across %d requests; the snapshot is not live", b, a, sent)
	}
	if roots(after) <= roots(before) {
		t.Fatalf("no new request root span: %d retained before, %d after", roots(before), roots(after))
	}
}
