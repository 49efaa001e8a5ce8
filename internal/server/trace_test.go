package server_test

import (
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"fsencr/internal/core"
	"fsencr/internal/fsclient"
	"fsencr/internal/fsproto"
	"fsencr/internal/server"
	"fsencr/internal/telemetry"
)

// traceService boots a one-shard fair-mode service with an HTTP front.
func traceService(t *testing.T) (*server.Service, *httptest.Server) {
	t.Helper()
	svc := server.New(server.Options{
		Shards: 1,
		MCMode: core.SchemeFsEncr.MCMode(),
		Access: core.SchemeFsEncr.AccessMode(),
	})
	hs := httptest.NewServer(svc.Mux())
	t.Cleanup(func() { svc.Close(); hs.Close() })
	return svc, hs
}

// TestRequestTraceWaterfall drives real requests through the HTTP stack and
// asserts the retained trace is a parent-linked waterfall: a "request" root
// span whose descendants cover the queue wait, the kernel syscall, the
// controller page path and the PCM bank access.
func TestRequestTraceWaterfall(t *testing.T) {
	svc, hs := traceService(t)

	cl := fsclient.Dial(hs.URL)
	if err := cl.Login("acme", 1, "pw"); err != nil {
		t.Fatalf("login: %v", err)
	}
	if err := cl.Create(fsproto.CreateRequest{Name: "f.dat", Perm: 0600, Size: 65536, Encrypted: true}); err != nil {
		t.Fatalf("create: %v", err)
	}
	// Several writes/reads: the first completed data op is always retained
	// (the first trace in an empty sampler is its own slowest decile), and
	// more give the sampler a population.
	buf := make([]byte, 4096)
	for i := 0; i < 16; i++ {
		if err := cl.Write(fsproto.WriteRequest{Name: "f.dat", Offset: uint64(i) * 4096, Data: buf}); err != nil {
			t.Fatalf("write %d: %v", i, err)
		}
		if _, err := cl.Read(fsproto.ReadRequest{Name: "f.dat", Offset: uint64(i) * 4096, Length: 4096}); err != nil {
			t.Fatalf("read %d: %v", i, err)
		}
	}

	snap := svc.Shards()[0].Snapshot()
	kept := snap.Counters["trace.kept_total"]
	dropped := snap.Counters["trace.dropped_total"]
	if kept == 0 {
		t.Fatal("no traces kept")
	}
	// Every sampled request reaching a bracket got exactly one decision.
	if total := kept + dropped; total < 33 { // login + create + 16 writes + 16 reads
		t.Fatalf("kept %d + dropped %d = %d, want >= 33", kept, dropped, total)
	}

	// Reassemble the retained traces and find a write root.
	type key struct{ trace, span uint64 }
	ids := make(map[key]bool)
	var roots []telemetry.Span
	for _, sp := range snap.Spans {
		if sp.TraceID == 0 {
			t.Fatalf("untraced span leaked into a traced shard ring: %+v", sp)
		}
		ids[key{sp.TraceID, sp.SpanID}] = true
		if sp.Cat == "request" && sp.ParentID == 0 {
			roots = append(roots, sp)
		}
	}
	// Every non-root span's parent must exist within its own trace.
	for _, sp := range snap.Spans {
		if sp.ParentID != 0 && !ids[key{sp.TraceID, sp.ParentID}] {
			t.Fatalf("span %q parent %d missing from trace %016x", sp.Name, sp.ParentID, sp.TraceID)
		}
	}

	var root *telemetry.Span
	for i := range roots {
		if roots[i].Name == "write" {
			root = &roots[i]
			break
		}
	}
	if root == nil {
		t.Fatalf("no retained write root among %d roots", len(roots))
	}
	cats := make(map[string]bool)
	names := make(map[string]bool)
	for _, sp := range snap.Spans {
		if sp.TraceID != root.TraceID {
			continue
		}
		cats[sp.Cat] = true
		names[sp.Name] = true
		// Starts nest inside the root; ends may legitimately outlast it
		// (the controller's write queue drains after the syscall returns).
		if sp.Start < root.Start {
			t.Errorf("span %s/%s starts at %d, before root start %d",
				sp.Cat, sp.Name, sp.Start, root.Start)
		}
	}
	for _, want := range []string{"request", "kernel", "machine", "memctrl", "pcm"} {
		if !cats[want] {
			t.Errorf("write trace missing %q layer; categories: %v", want, cats)
		}
	}
	if !names["queue_wait"] {
		t.Errorf("write trace missing the queue_wait phase; names: %v", names)
	}
}

// TestRequestIDHeader pins satellite 1: every response carries X-Request-Id
// (client-minted when a trace context is sent, server-minted otherwise), the
// client captures it, and API errors quote it.
func TestRequestIDHeader(t *testing.T) {
	_, hs := traceService(t)

	cl := fsclient.Dial(hs.URL)
	if err := cl.Login("acme", 1, "pw"); err != nil {
		t.Fatalf("login: %v", err)
	}
	if cl.LastRequestID == "" {
		t.Fatal("client did not capture X-Request-Id")
	}

	// An error response still carries the ID, and the error quotes it.
	_, err := cl.Read(fsproto.ReadRequest{Name: "nope.dat", Offset: 0, Length: 16})
	if err == nil {
		t.Fatal("read of missing file succeeded")
	}
	var ae *fsclient.APIError
	if !errors.As(err, &ae) {
		t.Fatalf("not an APIError: %v", err)
	}
	if ae.RequestID == "" || !strings.Contains(err.Error(), ae.RequestID) {
		t.Fatalf("API error does not carry/quote the request id: %v", err)
	}

	// A header-less request (no client trace context) gets a server-minted ID.
	resp, err := http.Post(hs.URL+"/v1/login", "application/json",
		strings.NewReader(`{"tenant":"acme","uid":1,"passphrase":"pw"}`))
	if err != nil {
		t.Fatalf("raw login: %v", err)
	}
	defer resp.Body.Close()
	if got := resp.Header.Get(fsproto.RequestIDHeader); len(got) != 16 {
		t.Fatalf("raw response X-Request-Id = %q, want 16 hex digits", got)
	}
}

// TestErrorTracesAlwaysKept checks the tail-sampling policy end to end:
// failing requests are retained no matter how the trace ID hashes.
func TestErrorTracesAlwaysKept(t *testing.T) {
	svc, hs := traceService(t)

	cl := fsclient.Dial(hs.URL)
	if err := cl.Login("acme", 1, "pw"); err != nil {
		t.Fatalf("login: %v", err)
	}
	before := svc.Shards()[0].Snapshot().Counters["trace.kept_total"]
	const probes = 8
	for i := 0; i < probes; i++ {
		if _, err := cl.Read(fsproto.ReadRequest{Name: "missing.dat", Offset: 0, Length: 16}); err == nil {
			t.Fatal("read of missing file succeeded")
		}
	}
	after := svc.Shards()[0].Snapshot().Counters["trace.kept_total"]
	if after-before < probes {
		t.Fatalf("only %d of %d error traces kept", after-before, probes)
	}
}
