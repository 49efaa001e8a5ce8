package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"sync"
	"time"

	"fsencr/internal/fs"
	"fsencr/internal/fsproto"
	"fsencr/internal/kernel"
	"fsencr/internal/kvstore"
	"fsencr/internal/obsplane"
)

// maxBodyBytes bounds one request body.
const maxBodyBytes = fsproto.MaxBodyBytes

// httpStatus maps service errors onto (status, stable code).
func httpStatus(err error) (int, string) {
	var wse *WrongShardError
	if errors.As(err, &wse) {
		return http.StatusMisdirectedRequest, fsproto.CodeEpochMismatch
	}
	switch {
	case errors.Is(err, ErrAuth):
		return http.StatusUnauthorized, fsproto.CodeAuth
	case errors.Is(err, kernel.ErrWrongPassphrase):
		return http.StatusForbidden, fsproto.CodeWrongPassphrase
	case errors.Is(err, kernel.ErrPermission), errors.Is(err, fs.ErrPermEperm):
		return http.StatusForbidden, fsproto.CodePermission
	case errors.Is(err, fs.ErrNotExist), errors.Is(err, kvstore.ErrNotFound):
		return http.StatusNotFound, fsproto.CodeNotFound
	case errors.Is(err, fs.ErrExists):
		return http.StatusConflict, fsproto.CodeExists
	case errors.Is(err, ErrBusy):
		return http.StatusTooManyRequests, fsproto.CodeBusy
	case errors.Is(err, ErrDraining):
		return http.StatusServiceUnavailable, fsproto.CodeDraining
	case errors.Is(err, context.DeadlineExceeded):
		return http.StatusGatewayTimeout, fsproto.CodeTimeout
	case errors.Is(err, ErrBadRequest):
		return http.StatusBadRequest, fsproto.CodeBadRequest
	default:
		return http.StatusInternalServerError, fsproto.CodeInternal
	}
}

// writeJSON encodes the response body. An encode/write failure after the
// status line went out cannot be reported to the client; it is counted
// (server.response_encode_errors_total) so a flood of broken responses is
// visible on the metrics surface instead of vanishing.
func (svc *Service) writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", fsproto.ContentTypeJSON)
	w.WriteHeader(status)
	if err := json.NewEncoder(w).Encode(v); err != nil {
		svc.cEncErrs.Inc()
	}
}

// writePayload answers 200 with the payload as the whole body, straight
// from its pooled buffer, and releases it. The explicit Content-Length
// keeps a page-sized body from going out chunked.
func (svc *Service) writePayload(w http.ResponseWriter, pl Payload) {
	w.Header().Set("Content-Type", fsproto.ContentTypeOctets)
	w.Header().Set("Content-Length", strconv.Itoa(len(pl.Data)))
	w.WriteHeader(http.StatusOK)
	if _, err := w.Write(pl.Data); err != nil {
		svc.cEncErrs.Inc()
	}
	pl.Release()
}

// writeError answers with the error's JSON body and returns the HTTP
// status it used (the SLO plane scores requests by it).
func (svc *Service) writeError(w http.ResponseWriter, err error) int {
	status, code := httpStatus(err)
	svc.cErrs.Inc()
	if code == fsproto.CodeBusy {
		svc.cBusy.Inc()
		// Export the rejecting shard's queue depth so the client's retry
		// policy can back off proportionally to actual congestion. Must be
		// set before writeJSON commits the status line.
		var be *BusyError
		if errors.As(err, &be) {
			w.Header().Set(fsproto.QueueDepthHeader, strconv.FormatInt(be.Depth, 10))
		}
	}
	svc.writeJSON(w, status, fsproto.Error{Code: code, Message: err.Error()})
	return status
}

// traceContext parses the client's trace header, minting a server-side
// (unsampled) ID when absent so every response carries an X-Request-Id.
func (svc *Service) traceContext(r *http.Request) fsproto.TraceContext {
	if tc, ok := fsproto.ParseTraceContext(r.Header.Get(fsproto.TraceHeader)); ok {
		return tc
	}
	return fsproto.TraceContext{TraceID: svc.mintServerTraceID()}
}

// readBody reads a request body, once, into one buffer sized from its
// Content-Length. The buffer is GC-owned and must stay so (no sync.Pool):
// decode points a framed write's payload into it, and a queued write can
// outlive its handler when RequestTimeout fires.
func readBody(r *http.Request) ([]byte, error) {
	body, err := fsproto.ReadBody(r.Body, r.ContentLength, maxBodyBytes)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadRequest, err)
	}
	return body, nil
}

// decode unmarshals a request body into v: plain JSON, or — on the two
// requests that carry a payload — a frame whose meta is that JSON and
// whose tail becomes the payload field.
func decode(r *http.Request, body []byte, v any) error {
	framed := r.Header.Get("Content-Type") == fsproto.ContentTypeFrame
	var payload []byte
	if framed {
		var err error
		if body, payload, err = fsproto.SplitFrame(body); err != nil {
			return fmt.Errorf("%w: %v", ErrBadRequest, err)
		}
	}
	if err := json.Unmarshal(body, v); err != nil {
		return fmt.Errorf("%w: %v", ErrBadRequest, err)
	}
	if framed {
		// The payload aliases the request body, not a copy of it; see
		// readBody for the lifetime rule that makes this safe.
		switch req := v.(type) {
		case *fsproto.WriteRequest:
			req.Data = payload
		case *fsproto.KVPutRequest:
			req.Value = payload
		default:
			return fmt.Errorf("%w: %s takes no framed payload", ErrBadRequest, r.URL.Path)
		}
	}
	return nil
}

// handler is an API endpoint; body is the request body.
type handler func(sess *Session, r *http.Request, body []byte) (any, error)

// opHandler is the endpoint of a table op: decode its request type, execute.
func (svc *Service) opHandler(o *op) handler {
	return func(sess *Session, r *http.Request, body []byte) (any, error) {
		req := o.newReq()
		if err := decode(r, body, req); err != nil {
			return nil, err
		}
		if o == opLogin {
			return svc.login(r.Context(), req.(*fsproto.LoginRequest))
		}
		pl, v, err := svc.exec(r.Context(), o, sess, req)
		if err != nil || pl.Data == nil {
			return v, err
		}
		return pl, nil
	}
}

// endpoint wraps a handler with method check, latency observation, trace
// propagation, session resolution (authed; login alone runs without, its
// handler returning the session it opened), and per-tenant SLO accounting.
func (svc *Service) endpoint(authed bool, h handler) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		svc.cReqs.Inc()
		tc := svc.traceContext(r)
		w.Header().Set(fsproto.RequestIDHeader, fsproto.FormatRequestID(tc.TraceID))
		r = r.WithContext(WithTrace(r.Context(), tc))
		status := http.StatusOK
		var sess *Session
		defer func() {
			dur := time.Since(start)
			svc.hReqNs.Observe(uint64(dur))
			svc.noteRequest(sess, dur, status)
		}()
		if r.Method != http.MethodPost {
			status = svc.writeError(w, fmt.Errorf("%w: POST required", ErrBadRequest))
			return
		}
		// Buffer the body up front: a misrouted request may need proxying
		// to the shard's current owner, body and all.
		body, err := readBody(r)
		if err != nil {
			status = svc.writeError(w, err)
			return
		}
		if authed {
			sess, err = svc.session(r.Header.Get(fsproto.TokenHeader))
			if err != nil && errors.Is(err, errBadToken) {
				sess, err = svc.peerSession(r)
			}
			if err != nil {
				if st, ok := svc.tryForward(w, r, body, nil, err); ok {
					status = st
					return
				}
				status = svc.writeError(w, err)
				return
			}
		}
		v, err := h(sess, r, body)
		if err != nil {
			if st, ok := svc.tryForward(w, r, body, sess, err); ok {
				status = st
				return
			}
			status = svc.writeError(w, err)
			return
		}
		switch v := v.(type) {
		case Payload:
			svc.writePayload(w, v)
		case *Session:
			// A login: score the request to the tenant it opened a session for.
			sess = v
			svc.writeJSON(w, http.StatusOK, fsproto.LoginResponse{
				Token: v.token,
				GID:   v.gid,
				Shard: fsproto.ShardIndex(v.gid, svc.nShards),
			})
		case nil:
			svc.writeJSON(w, http.StatusOK, fsproto.OKResponse{OK: true})
		default:
			svc.writeJSON(w, http.StatusOK, v)
		}
	}
}

// tryForward proxies a misrouted request (WrongShardError) to the
// shard's current owner, one hop at most — the ForwardedHeader loop
// guard keeps two stale nodes from bouncing a request between them.
// When the request's session is homed here (a cross-tenant op targeting
// a remote shard) the session identity rides along as peer headers so
// the owner can admit it under a shadow session. Returns ok=false to
// fall through to the ordinary 421, which a cluster-aware client
// answers by refreshing its routing table.
func (svc *Service) tryForward(w http.ResponseWriter, r *http.Request, body []byte, sess *Session, err error) (int, bool) {
	var wse *WrongShardError
	if !errors.As(err, &wse) {
		return 0, false
	}
	if r.Header.Get(fsproto.ForwardedHeader) != "" {
		return 0, false
	}
	f := svc.forwarder()
	if f == nil {
		return 0, false
	}
	base, ok := f(wse.Shard)
	if !ok || base == "" {
		return 0, false
	}
	freq := fsproto.Request{
		Path:        r.URL.Path,
		ContentType: r.Header.Get("Content-Type"),
		Token:       r.Header.Get(fsproto.TokenHeader),
		// The context the entry handler resolved, so the owner continues the
		// same trace even when this node minted the ID.
		Trace:     TraceFromContext(r.Context()),
		Forwarded: true,
		Body:      body,
	}
	if sess != nil {
		freq.Peer = &fsproto.Peer{Tenant: sess.tenant, UID: sess.uid, Pass: sess.pass}
	}
	conn, rerr := svc.hop.get(base)
	if rerr != nil {
		return 0, false
	}
	conn.SetDeadline(time.Now().Add(svc.opts.RequestTimeout))
	resp, rerr := conn.Do(&freq)
	svc.hop.put(base, conn)
	if rerr != nil {
		return 0, false
	}
	h := w.Header()
	if resp.ContentType != "" {
		h.Set("Content-Type", resp.ContentType)
	}
	h.Set("Content-Length", strconv.Itoa(len(resp.Body)))
	if resp.QueueDepth >= 0 {
		// The owner's 429 hint: the client's backoff scales by it.
		h.Set(fsproto.QueueDepthHeader, strconv.FormatInt(resp.QueueDepth, 10))
	}
	w.WriteHeader(resp.Status)
	if _, werr := w.Write(resp.Body); werr != nil {
		svc.cEncErrs.Inc()
	}
	svc.cFwd.Inc()
	return resp.Status, true
}

// hopConns holds the forward hop's connections: per owner base URL, a short
// list of idle ones. A forward takes one (a new one when the list is empty),
// owns it for its exchange, and puts it back.
type hopConns struct {
	mu     sync.Mutex
	idle   map[string][]*fsproto.Conn
	closed bool
}

// maxIdleHopConns bounds the idle list of one owner; a forward that finds
// it full on return closes its connection.
const maxIdleHopConns = 8

func (h *hopConns) get(base string) (*fsproto.Conn, error) {
	h.mu.Lock()
	if l := h.idle[base]; len(l) > 0 {
		// The most recently used: the least likely to have been closed.
		conn := l[len(l)-1]
		h.idle[base] = l[:len(l)-1]
		h.mu.Unlock()
		return conn, nil
	}
	h.mu.Unlock()
	return fsproto.Dial(base)
}

func (h *hopConns) put(base string, conn *fsproto.Conn) {
	h.mu.Lock()
	keep := !h.closed && len(h.idle[base]) < maxIdleHopConns
	if keep {
		if h.idle == nil {
			h.idle = make(map[string][]*fsproto.Conn)
		}
		h.idle[base] = append(h.idle[base], conn)
	}
	h.mu.Unlock()
	if !keep {
		conn.Close()
	}
}

// close closes the idle connections; one out on a forward is closed when
// it comes back.
func (h *hopConns) close() {
	h.mu.Lock()
	idle := h.idle
	h.idle, h.closed = nil, true
	h.mu.Unlock()
	for _, l := range idle {
		for _, conn := range l {
			conn.Close()
		}
	}
}

// handleShardsProm serves every shard's deterministic snapshot in
// Prometheus text format, one "# shard N" section each — the surface the
// determinism acceptance check byte-compares across reruns.
func (svc *Service) handleShardsProm(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	for _, sh := range svc.Shards() {
		fmt.Fprintf(w, "# shard %d\n", sh.ID())
		if err := sh.Snapshot().WritePrometheus(w); err != nil {
			svc.cEncErrs.Inc()
			return
		}
	}
}

// handleShardsJSON serves the same state as JSON.
func (svc *Service) handleShardsJSON(w http.ResponseWriter, _ *http.Request) {
	type shardDoc struct {
		Shard    int `json:"shard"`
		Snapshot any `json:"snapshot"`
	}
	shards := svc.Shards()
	docs := make([]shardDoc, 0, len(shards))
	for _, sh := range shards {
		docs = append(docs, shardDoc{Shard: sh.ID(), Snapshot: sh.Snapshot().WithoutSpans()})
	}
	svc.writeJSON(w, http.StatusOK, docs)
}

// Mux returns the full fsencrd route set: the /v1 API, the per-shard
// determinism surfaces, and the live observability plane (/metrics,
// /snapshot.json, /trace.json, /journal.jsonl, /audit.jsonl, /healthz,
// /debug/pprof) backed by the service's merged telemetry, journals, and
// audit logs.
func (svc *Service) Mux() *http.ServeMux {
	mux := http.NewServeMux()
	for _, o := range ops {
		mux.HandleFunc(o.route, svc.endpoint(o != opLogin, svc.opHandler(o)))
	}
	// Unlogged, so not in the op table: logout touches only the session
	// table, stat is read-only and schedule-neutral (Service.Stat).
	mux.HandleFunc("/v1/logout", svc.endpoint(true, func(sess *Session, _ *http.Request, _ []byte) (any, error) {
		svc.Logout(sess.token)
		return nil, nil
	}))
	mux.HandleFunc("/v1/stat", svc.endpoint(true, func(sess *Session, r *http.Request, body []byte) (any, error) {
		var req fsproto.StatRequest
		if err := decode(r, body, &req); err != nil {
			return nil, err
		}
		return svc.Stat(r.Context(), sess, req)
	}))
	mux.HandleFunc("/shards.prom", svc.handleShardsProm)
	mux.HandleFunc("/shards.json", svc.handleShardsJSON)

	obs := obsplane.NewServer(obsplane.Options{
		Snapshot: svc.MetricsSnapshot,
		Journal:  svc.JournalEvents,
		Audit:    svc.AuditRecords,
	})
	mux.Handle("/", obs.Handler())
	return mux
}
