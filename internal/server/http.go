package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
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
	case errors.Is(err, errNoRoute):
		return http.StatusNotFound, fsproto.CodeNotFound
	default:
		return http.StatusInternalServerError, fsproto.CodeInternal
	}
}

// errNoRoute reports a path outside the /v1 API. The mux never routes one
// here; a connection the request loop has taken over can carry one, and
// cannot be handed back to the mux: it is answered 404 and closed.
var errNoRoute = errors.New("server: no such route")

// okBody is the body of an op that answers nothing else.
var okBody = []byte(`{"ok":true}` + "\n")

// jsonBody encodes a 200 response body. A value that will not encode is
// answered 500 and counted (server.response_encode_errors_total), so a flood
// of broken responses is visible on the metrics surface.
func (svc *Service) jsonBody(resp *fsproto.Response, v any) {
	body, err := json.Marshal(v)
	if err != nil {
		svc.cEncErrs.Inc()
		*resp = svc.errorResponse(fmt.Errorf("encode response: %w", err))
		return
	}
	resp.Body = append(body, '\n')
}

// errorResponse is the error's JSON answer. A 429 carries the rejecting
// shard's queue depth, so the client's retry policy can back off
// proportionally to actual congestion.
func (svc *Service) errorResponse(err error) fsproto.Response {
	status, code := httpStatus(err)
	svc.cErrs.Inc()
	resp := fsproto.ErrorResponse(status, code, err.Error())
	if code == fsproto.CodeBusy {
		svc.cBusy.Inc()
		var be *BusyError
		if errors.As(err, &be) {
			resp.QueueDepth = be.Depth
		}
	}
	return resp
}

// decode unmarshals a request body into v: plain JSON, or — on the two
// requests that carry a payload — a frame whose meta is that JSON and
// whose tail becomes the payload field.
func decode(req *fsproto.Request, v any) error {
	body, framed := req.Body, req.ContentType == fsproto.ContentTypeFrame
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
		// The payload aliases the request body, not a copy of it. That is
		// safe because a body is one GC-owned buffer per request, never
		// pooled, on both transports: a queued write can outlive its request
		// when RequestTimeout fires.
		switch r := v.(type) {
		case *fsproto.WriteRequest:
			r.Data = payload
		case *fsproto.KVPutRequest:
			r.Value = payload
		default:
			return fmt.Errorf("%w: %s takes no framed payload", ErrBadRequest, req.Path)
		}
	}
	return nil
}

// route is one /v1 endpoint: authed ones run under the request's session,
// login alone runs without, its handler returning the session it opened.
type route struct {
	authed bool
	h      func(ctx context.Context, sess *Session, req *fsproto.Request) (any, error)
}

// routes builds the /v1 route table: a row per table op, plus the two
// unlogged endpoints — logout touches only the session table, stat is
// read-only and schedule-neutral (Service.Stat).
func (svc *Service) routes() map[string]route {
	rt := make(map[string]route, len(ops)+2)
	for _, o := range ops {
		rt[o.route] = route{o != opLogin, func(ctx context.Context, sess *Session, r *fsproto.Request) (any, error) {
			req := o.newReq()
			if err := decode(r, req); err != nil {
				return nil, err
			}
			if o == opLogin {
				return svc.login(ctx, req.(*fsproto.LoginRequest), r)
			}
			pl, v, err := svc.exec(ctx, o, sess, req, r)
			if err != nil || pl.Data == nil {
				return v, err
			}
			return pl, nil
		}}
	}
	rt["/v1/logout"] = route{true, func(_ context.Context, sess *Session, _ *fsproto.Request) (any, error) {
		svc.Logout(sess.token)
		return nil, nil
	}}
	rt["/v1/stat"] = route{true, func(ctx context.Context, sess *Session, r *fsproto.Request) (any, error) {
		var req fsproto.StatRequest
		if err := decode(r, &req); err != nil {
			return nil, err
		}
		return svc.Stat(ctx, sess, req)
	}}
	return rt
}

// dispatch runs req's endpoint: route, method check, session resolution.
// The session is returned whenever it was resolved, whatever the endpoint
// then answered.
func (svc *Service) dispatch(ctx context.Context, req *fsproto.Request) (sess *Session, v any, err error) {
	rt, ok := svc.rt[req.Path]
	if !ok {
		return nil, nil, fmt.Errorf("%w: %s", errNoRoute, req.Path)
	}
	if req.Method != "" {
		return nil, nil, fmt.Errorf("%w: POST required", ErrBadRequest)
	}
	if rt.authed {
		sess, err = svc.session(req.Token)
		if err != nil && errors.Is(err, errBadToken) {
			sess, err = svc.peerSession(req)
		}
		if err != nil {
			return nil, nil, err
		}
	}
	v, err = rt.h(ctx, sess, req)
	return sess, v, err
}

// handle answers one /v1 request, whichever transport parsed it: trace
// propagation (a server-side, unsampled ID is minted when the client sent
// none, so every response carries an X-Request-Id), dispatch, the forward hop
// for a misrouted request, error -> status/code/queue depth, latency
// observation and per-tenant SLO accounting. The context an op runs under
// carries the trace and nothing of the wire: a client that hangs up is
// noticed when its answer is written. The Payload backs the body of a read's
// answer: release it once the response is sent.
func (svc *Service) handle(req *fsproto.Request) (resp fsproto.Response, pl Payload) {
	start := time.Now()
	svc.cReqs.Inc()
	tc := req.Trace
	if tc.TraceID == 0 {
		tc = fsproto.TraceContext{TraceID: svc.mintServerTraceID()}
	}
	resp = fsproto.Response{Status: http.StatusOK, ContentType: fsproto.ContentTypeJSON, QueueDepth: -1}
	sess, v, err := svc.dispatch(WithTrace(context.Background(), tc), req)
	if err != nil {
		var ok bool
		if resp, ok = svc.tryForward(req, tc, sess, err); !ok {
			resp = svc.errorResponse(err)
			resp.Close = errors.Is(err, errNoRoute)
		}
	} else {
		switch v := v.(type) {
		case Payload:
			resp.ContentType, resp.Body, pl = fsproto.ContentTypeOctets, v.Data, v
		case *Session:
			// A login: score the request to the tenant it opened a session for.
			sess = v
			svc.jsonBody(&resp, fsproto.LoginResponse{
				Token: v.token,
				GID:   v.gid,
				Shard: fsproto.ShardIndex(v.gid, svc.nShards),
			})
		case nil:
			resp.Body = okBody
		default:
			svc.jsonBody(&resp, v)
		}
	}
	resp.RequestID = fsproto.FormatRequestID(tc.TraceID)
	// Draining: this answer is the connection's last.
	resp.Close = resp.Close || svc.conns.draining.Load()
	dur := time.Since(start)
	svc.hReqNs.Observe(uint64(dur))
	svc.noteRequest(sess, dur, resp.Status)
	return resp, pl
}

// tryForward proxies a misrouted request (WrongShardError) to the
// shard's current owner, one hop at most — the Forwarded loop guard keeps
// two stale nodes from bouncing a request between them. The hop is the
// parsed request sent on: the resolved trace context, so the owner continues
// the same trace even when this node minted the ID, and — when the session is
// homed here (a cross-tenant op targeting a remote shard) — its identity as
// the peer, so the owner can admit it under a shadow session. The owner's
// answer, queue-depth hint included, is returned as is. ok=false falls
// through to the ordinary 421, which a cluster-aware client answers by
// refreshing its routing table.
func (svc *Service) tryForward(req *fsproto.Request, tc fsproto.TraceContext, sess *Session, err error) (resp fsproto.Response, ok bool) {
	var wse *WrongShardError
	f := svc.forwarder()
	if !errors.As(err, &wse) || req.Forwarded || f == nil {
		return resp, false
	}
	base, ok := f(wse.Shard)
	if !ok || base == "" {
		return resp, false
	}
	freq := *req
	freq.Trace, freq.Forwarded, freq.Peer = tc, true, nil
	if sess != nil {
		freq.Peer = &fsproto.Peer{Tenant: sess.tenant, UID: sess.uid, Pass: sess.pass}
	}
	conn, rerr := svc.hop.get(base)
	if rerr != nil {
		return resp, false
	}
	conn.SetDeadline(time.Now().Add(svc.opts.RequestTimeout))
	resp, rerr = conn.Do(&freq)
	svc.hop.put(base, conn)
	if rerr != nil {
		return resp, false
	}
	svc.cFwd.Inc()
	resp.Close = false // the hop's connection, not the client's
	return resp, true
}

// serveHTTP is the net/http transport of handle, mounted on every /v1
// route. It answers the request it was given through w and then, when the
// connection can be taken over (HTTP/1.1 on a ResponseWriter that hijacks),
// keeps it and runs the request loop on it; a wrapped writer, a recorder or
// HTTP/2 stays with net/http, request by request.
func (svc *Service) serveHTTP(w http.ResponseWriter, r *http.Request) {
	req := fsproto.Request{
		Path:        r.URL.Path,
		ContentType: r.Header.Get("Content-Type"),
		Token:       r.Header.Get(fsproto.TokenHeader),
		Forwarded:   r.Header.Get(fsproto.ForwardedHeader) != "",
	}
	if r.Method != http.MethodPost {
		req.Method = r.Method
	}
	req.Trace, _ = fsproto.ParseTraceContext(r.Header.Get(fsproto.TraceHeader))
	if tenant := r.Header.Get(fsproto.PeerTenantHeader); tenant != "" {
		if uid, err := strconv.ParseUint(r.Header.Get(fsproto.PeerUIDHeader), 10, 32); err == nil {
			req.Peer = &fsproto.Peer{Tenant: tenant, UID: uint32(uid), Pass: r.Header.Get(fsproto.PeerPassHeader)}
		}
	}
	var resp fsproto.Response
	var pl Payload
	var err error
	// Buffered up front: a misrouted request may need proxying to the
	// shard's current owner, body and all.
	if req.Body, err = fsproto.ReadBody(r.Body, r.ContentLength, maxBodyBytes); err != nil {
		resp = fsproto.ErrorResponse(http.StatusBadRequest, fsproto.CodeBadRequest, err.Error())
		resp.Close = true
	} else {
		resp, pl = svc.handle(&req)
	}
	h := w.Header()
	h.Set("Content-Type", resp.ContentType)
	// The explicit length keeps a page-sized body from going out chunked.
	h.Set("Content-Length", strconv.Itoa(len(resp.Body)))
	if resp.RequestID != "" {
		h.Set(fsproto.RequestIDHeader, resp.RequestID)
	}
	if resp.QueueDepth >= 0 {
		h.Set(fsproto.QueueDepthHeader, strconv.FormatInt(resp.QueueDepth, 10))
	}
	if resp.Close {
		h.Set("Connection", "close")
	}
	w.WriteHeader(resp.Status)
	_, err = w.Write(resp.Body)
	pl.Release()
	if err != nil {
		svc.cEncErrs.Inc()
		return
	}
	if resp.Close || r.Close || r.ProtoMajor != 1 || r.ProtoMinor < 1 {
		return
	}
	rc := http.NewResponseController(w)
	if rc.Flush() != nil {
		return
	}
	if nc, brw, err := rc.Hijack(); err == nil {
		svc.serveConn(nc, brw.Reader)
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
	w.Header().Set("Content-Type", fsproto.ContentTypeJSON)
	if err := json.NewEncoder(w).Encode(docs); err != nil {
		svc.cEncErrs.Inc()
	}
}

// Mux returns the full fsencrd route set: the /v1 API, the per-shard
// determinism surfaces, and the live observability plane (/metrics,
// /snapshot.json, /trace.json, /journal.jsonl, /audit.jsonl, /healthz,
// /debug/pprof) backed by the service's merged telemetry, journals, and
// audit logs.
func (svc *Service) Mux() *http.ServeMux {
	mux := http.NewServeMux()
	for path := range svc.rt {
		mux.HandleFunc(path, svc.serveHTTP)
	}
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
