// Package obsplane is the live observability plane: an HTTP serving layer
// over the telemetry sink and the security-event journal, so a running
// simulation can be scraped (/metrics), inspected (/snapshot.json,
// /trace.json, /journal.jsonl, /audit.jsonl), health-checked (/healthz), and
// profiled (/debug/pprof) without stopping the batch.
//
// The server owns no metrics and keeps no state between requests: every
// endpoint reads the current capture through caller-supplied functions
// (typically core.LiveTelemetrySnapshot and core.LiveJournalEvents), which
// serialize against the batch merge locks, so a live reader never perturbs
// what the simulation records — determinism of the exported data is
// untouched by scrape traffic. A reader that wants rates diffs two
// consecutive fetches itself.
package obsplane

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"sync"
	"sync/atomic"

	"fsencr/internal/audit"
	"fsencr/internal/obsplane/journal"
	"fsencr/internal/telemetry"
)

// Options configures a Server.
type Options struct {
	// Snapshot captures the current merged telemetry state. Nil (or a nil
	// return) serves as an empty snapshot.
	Snapshot func() *telemetry.Snapshot
	// Journal captures the current merged security-event journal; nil
	// serves an empty journal.
	Journal func() []journal.Event
	// Audit captures the current tamper-evident access-audit window; nil
	// serves an empty log.
	Audit func() []audit.Record
}

// Server serves the live plane.
type Server struct {
	opts Options

	// writeErrs counts export responses that failed mid-write (client went
	// away, encode error). The data is gone either way; the count is
	// surfaced on /healthz so broken scrapes are visible, not silent.
	writeErrs atomic.Uint64

	hs *http.Server
	wg sync.WaitGroup
}

// noteWrite folds one export write result into the error count.
func (s *Server) noteWrite(err error) {
	if err != nil {
		s.writeErrs.Add(1)
	}
}

// NewServer builds a server; call Start to bind it or mount Handler
// yourself.
func NewServer(opts Options) *Server { return &Server{opts: opts} }

// capture reads the current telemetry state, tolerating absent sources.
func (s *Server) capture() *telemetry.Snapshot {
	if s.opts.Snapshot != nil {
		if snap := s.opts.Snapshot(); snap != nil {
			return snap
		}
	}
	return telemetry.NewSnapshot()
}

func (s *Server) journalEvents() []journal.Event {
	if s.opts.Journal != nil {
		return s.opts.Journal()
	}
	return nil
}

func (s *Server) auditRecords() []audit.Record {
	if s.opts.Audit != nil {
		return s.opts.Audit()
	}
	return nil
}

// Handler returns the plane's route mux.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/healthz", s.handleHealthz)
	mux.HandleFunc("/metrics", s.handleMetrics)
	mux.HandleFunc("/snapshot.json", s.handleSnapshot)
	mux.HandleFunc("/trace.json", s.handleTrace)
	mux.HandleFunc("/journal.jsonl", s.handleJournal)
	mux.HandleFunc("/audit.jsonl", s.handleAudit)
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	_, err := fmt.Fprintf(w, "{\"status\":\"ok\",\"write_errors\":%d}\n", s.writeErrs.Load())
	s.noteWrite(err)
}

func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	// Runtime gauges are added to this serving-time copy only — they never
	// touch the deterministic snapshots.
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	s.noteWrite(s.capture().AddRuntimeGauges().WritePrometheus(w))
}

// handleSnapshot serves the live capture as one snapshot document,
// retained spans included.
func (s *Server) handleSnapshot(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	s.noteWrite(s.capture().WriteJSON(w))
}

func (s *Server) handleTrace(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	s.noteWrite(s.capture().WriteChromeTrace(w))
}

func (s *Server) handleJournal(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "application/x-ndjson")
	s.noteWrite(journal.WriteJSONL(w, s.journalEvents()))
}

// handleAudit serves the tamper-evident access-audit window as JSONL, one
// record per line, shard-annotated and chain-valued.
func (s *Server) handleAudit(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "application/x-ndjson")
	s.noteWrite(audit.WriteJSONL(w, s.auditRecords()))
}

// Start binds addr (":0" picks a free port) and serves the plane in the
// background. It returns the bound address.
func (s *Server) Start(addr string) (string, error) {
	lis, err := net.Listen("tcp", addr)
	if err != nil {
		return "", fmt.Errorf("obsplane: %w", err)
	}
	s.hs = &http.Server{Handler: s.Handler()}
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		_ = s.hs.Serve(lis) // always returns ErrServerClosed on Close
	}()
	return lis.Addr().String(), nil
}

// Close stops the HTTP server and waits for it.
func (s *Server) Close() error {
	if s.hs == nil {
		return nil
	}
	err := s.hs.Close()
	s.wg.Wait()
	s.hs = nil
	return err
}

// Shutdown is the graceful Close: in-flight requests drain, bounded by ctx.
func (s *Server) Shutdown(ctx context.Context) error {
	if s.hs == nil {
		return nil
	}
	err := s.hs.Shutdown(ctx)
	s.wg.Wait()
	s.hs = nil
	return err
}
