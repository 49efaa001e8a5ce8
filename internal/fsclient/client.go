// Package fsclient is the Go client for fsencrd, the multi-tenant
// encrypted file service: a thin typed layer over the /v1 API (JSON
// messages; page payloads travel raw, see fsproto/frame.go) plus a
// seeded load generator (loadgen.go).
//
// A Client is one authenticated tenant session. Methods mirror the
// service's operations one-to-one; request structs come from
// internal/fsproto so client and server agree on shapes and on the
// tenant -> shard mapping (which the cluster client routes by).
package fsclient

import (
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"math/rand/v2"
	"net/http"
	"time"

	"fsencr/internal/fsproto"
	"fsencr/internal/telemetry"
)

// APIError is a non-2xx response decoded from the service's error body.
type APIError struct {
	Status  int    // HTTP status
	Code    string // stable fsproto code ("permission", "busy", ...)
	Message string
	// RequestID is the server's X-Request-Id echo (the request's trace ID
	// in hex), joining this failure to the server-side trace.
	RequestID string
	// Attempts is how many times the request was sent before this error
	// came back (1 with retries off).
	Attempts int
	// QueueDepth is the rejecting shard's admitted-but-unserved task count
	// from the X-Fsencr-Queue-Depth hint on 429 responses, or -1 when the
	// response carried no hint. The retry loop scales its backoff by it.
	QueueDepth int64
}

func (e *APIError) Error() string {
	if e.RequestID != "" {
		return fmt.Sprintf("fsencrd: %s (%d %s) [req %s]", e.Message, e.Status, e.Code, e.RequestID)
	}
	return fmt.Sprintf("fsencrd: %s (%d %s)", e.Message, e.Status, e.Code)
}

// IsCode reports whether err is an APIError carrying the given stable code.
func IsCode(err error, code string) bool {
	var ae *APIError
	return errors.As(err, &ae) && ae.Code == code
}

// Client is one session against an fsencrd server. It is for one goroutine
// at a time: the request counter, LastRequestID and the connection are
// unsynchronised, and an exchange runs on the caller's goroutine.
type Client struct {
	base string
	// conn is the session's one connection (fsproto.Conn), dialled by the
	// first request to base and dropped by Close, Logout and a reroute;
	// frame is the scratch a write's frame prefix and meta are built in.
	conn  *fsproto.Conn
	frame []byte
	token string
	gid   uint32
	shard int

	// Trace minting state: traceBase hashes the caller identity (tenant
	// and uid at Login, the base URL before), reqSeq counts requests, and
	// together they make every request's trace ID a function of the
	// session's op sequence. sampled is the head-sampling bit (default
	// on; the server tail-samples among sampled traces).
	traceBase uint64
	reqSeq    uint64
	sampled   bool
	// LastRequestID is the X-Request-Id of the most recent response.
	LastRequestID string

	// retry bounds automatic re-sends; the zero value means exactly one
	// attempt, so every op is sent once.
	retry RetryPolicy
	// onReroute, when set, is consulted on an epoch-mismatch response or a
	// transport error: it returns a (possibly new) base URL after
	// refreshing whatever routing state the caller maintains. The
	// cluster-aware client uses it to chase shard migrations.
	onReroute func() (string, bool)
}

// RetryPolicy bounds the client's automatic retries on HTTP 429 (admission
// queue full) and transient transport errors. Off by default: Max is the
// number of re-sends after the first attempt.
type RetryPolicy struct {
	Max       int           // re-sends after the first attempt (0 = off)
	BaseDelay time.Duration // first backoff step (default 5ms when Max > 0)
	MaxDelay  time.Duration // backoff cap (default 250ms)
}

// SetRetry installs a retry policy. Leave it unset (or Max 0) to send every
// op exactly once.
func (c *Client) SetRetry(p RetryPolicy) { c.retry = p }

// SetRerouter installs the routing-refresh hook consulted on epoch
// mismatches and transport errors.
func (c *Client) SetRerouter(fn func() (string, bool)) { c.onReroute = fn }

// Dial points a client at a server base URL (e.g. "http://127.0.0.1:9144").
// No connection is made until Login. Close the client when done with it.
func Dial(base string) *Client {
	return &Client{base: base, traceBase: fnv64a(base), sampled: true}
}

// Close drops the client's connection. The session and the client stay
// valid: a later call redials.
func (c *Client) Close() {
	if c.conn != nil {
		c.conn.Close()
		c.conn = nil
	}
}

func fnv64a(parts ...string) uint64 {
	h := fnv.New64a()
	for _, p := range parts {
		h.Write([]byte(p))
		h.Write([]byte{0})
	}
	return h.Sum64()
}

// GID returns the tenant group ID echoed by the server at login.
func (c *Client) GID() uint32 { return c.gid }

// Shard returns the tenant's shard index echoed by the server at login.
func (c *Client) Shard() int { return c.shard }

// post sends one JSON request and decodes the JSON response into out (nil
// out discards the body).
func (c *Client) post(path string, req, out any) error {
	body, err := json.Marshal(req)
	if err != nil {
		return err
	}
	data, _, err := c.roundTrip(path, fsproto.ContentTypeJSON, body, nil)
	if err != nil || out == nil {
		return err
	}
	return json.Unmarshal(data, out)
}

// postFrame sends a request whose payload follows its JSON (meta, the
// request struct with the payload field nil) as raw bytes in one frame. The
// payload goes to the socket from the caller's slice.
func (c *Client) postFrame(path string, meta any, payload []byte) error {
	m, err := json.Marshal(meta)
	if err != nil {
		return err
	}
	c.frame = fsproto.AppendFrame(c.frame[:0], m, nil)
	_, _, err = c.roundTrip(path, fsproto.ContentTypeFrame, c.frame, payload)
	return err
}

// postForPayload sends one JSON request whose answer is a raw payload: the
// returned slice is the buffer the response body was read into.
func (c *Client) postForPayload(path string, req any) ([]byte, error) {
	body, err := json.Marshal(req)
	if err != nil {
		return nil, err
	}
	data, ctype, err := c.roundTrip(path, fsproto.ContentTypeJSON, body, nil)
	if err != nil {
		return nil, err
	}
	if ctype != fsproto.ContentTypeOctets {
		return nil, fmt.Errorf("fsencrd: %s answered 200 with content type %q, want %q", path, ctype, fsproto.ContentTypeOctets)
	}
	return data, nil
}

// roundTrip sends one encoded request (its body is body followed by tail),
// retrying per the client's policy, and returns the 200 response's body and
// content type. One logical request keeps one trace ID across every attempt
// and reroute.
func (c *Client) roundTrip(path, ctype string, body, tail []byte) ([]byte, string, error) {
	c.reqSeq++
	req := fsproto.Request{
		Path: path, ContentType: ctype, Token: c.token, Body: body, Tail: tail,
		Trace: fsproto.TraceContext{TraceID: telemetry.MintTraceID(c.traceBase, c.reqSeq), Sampled: c.sampled},
	}
	attempts, reroutes := 0, 0
	for {
		attempts++
		data, rtype, err := c.send(&req)
		if err == nil {
			return data, rtype, nil
		}
		// A moved shard or a dead node is not a failure of the request, it
		// is stale routing: refresh and re-send (bounded, in case the
		// routing authority itself is confused).
		if c.onReroute != nil && reroutes < maxReroutes && needsReroute(err) {
			if base, ok := c.onReroute(); ok {
				if base != c.base {
					c.Close()
					c.base = base
				}
				reroutes++
				continue
			}
		}
		if c.retry.Max <= 0 || attempts > c.retry.Max || !retryable(err) {
			var ae *APIError
			if errors.As(err, &ae) {
				ae.Attempts = attempts
			}
			return nil, "", err
		}
		time.Sleep(c.backoffFor(attempts, err))
	}
}

// maxReroutes bounds routing-refresh loops within one logical request.
const maxReroutes = 3

// send is one attempt, on the client's connection (dialled here when there
// is none). The response body is one buffer, bounded by the protocol's body
// limit.
func (c *Client) send(req *fsproto.Request) ([]byte, string, error) {
	if c.conn == nil {
		conn, err := fsproto.Dial(c.base)
		if err != nil {
			return nil, "", err
		}
		c.conn = conn
	}
	resp, err := c.conn.Do(req)
	if err != nil {
		return nil, "", err
	}
	c.LastRequestID = resp.RequestID
	if resp.Status != http.StatusOK {
		var pe fsproto.Error
		if json.Unmarshal(resp.Body, &pe) != nil || pe.Code == "" {
			pe = fsproto.Error{Code: fsproto.CodeInternal, Message: string(resp.Body)}
		}
		return nil, "", &APIError{Status: resp.Status, Code: pe.Code, Message: pe.Message,
			RequestID: resp.RequestID, QueueDepth: resp.QueueDepth}
	}
	return resp.Body, resp.ContentType, nil
}

// retryable reports whether err is worth re-sending: admission backpressure
// (429) or a failure below the protocol, before any response.
func retryable(err error) bool {
	var ae *APIError
	if errors.As(err, &ae) {
		return ae.Status == http.StatusTooManyRequests
	}
	var we *fsproto.WireError
	return errors.As(err, &we)
}

// needsReroute reports whether err signals stale routing: the node
// disowned the shard at a newer epoch, or the node is unreachable.
func needsReroute(err error) bool {
	var ae *APIError
	if errors.As(err, &ae) {
		return ae.Code == fsproto.CodeEpochMismatch
	}
	var we *fsproto.WireError
	return errors.As(err, &we)
}

// queueDepthScale converts a 429 queue-depth hint into backoff growth: the
// hinted delay reaches one extra BaseDelay per queueDepthScale queued tasks.
// With the default per-tenant queue of 64 a full queue backs off ~5x
// BaseDelay — still far gentler than a few exponential doublings.
const queueDepthScale = 16

// backoffFor picks the sleep before re-send n+1, with ±50% jitter so
// synchronized clients desynchronize. A 429 that carries the server's
// queue-depth hint gets a depth-proportional delay: a read burst bouncing off
// a shallow, already-draining queue retries almost immediately, while a deep
// queue (genuine congestion) waits longer. Transport faults and unhinted
// errors say nothing about server load, so they keep the conservative curve,
// exponential from BaseDelay. Either is capped at MaxDelay.
func (c *Client) backoffFor(attempt int, err error) time.Duration {
	base := c.retry.BaseDelay
	if base <= 0 {
		base = 5 * time.Millisecond
	}
	maxd := c.retry.MaxDelay
	if maxd <= 0 {
		maxd = 250 * time.Millisecond
	}
	d := base << (attempt - 1)
	var ae *APIError
	if errors.As(err, &ae) && ae.Status == http.StatusTooManyRequests && ae.QueueDepth >= 0 {
		d = base + base*time.Duration(ae.QueueDepth)/queueDepthScale
	}
	if d > maxd || d <= 0 {
		d = maxd
	}
	return d/2 + time.Duration(rand.Int64N(int64(d)))
}

// Login opens the session.
func (c *Client) Login(tenant string, uid uint32, passphrase string) error {
	// Rebase trace minting on the tenant identity so a session's ops get the
	// same trace IDs regardless of the server address.
	c.traceBase = fnv64a("trace", tenant, fmt.Sprintf("%d", uid))
	c.reqSeq = 0
	req := fsproto.LoginRequest{Tenant: tenant, UID: uid, Passphrase: passphrase}
	var resp fsproto.LoginResponse
	if err := c.post("/v1/login", req, &resp); err != nil {
		return err
	}
	c.token, c.gid, c.shard = resp.Token, resp.GID, resp.Shard
	return nil
}

// Logout closes the session server-side and drops the connection.
func (c *Client) Logout() error {
	err := c.post("/v1/logout", struct{}{}, nil)
	c.token = ""
	c.Close()
	return err
}

// Create creates a file in the session tenant's namespace.
func (c *Client) Create(req fsproto.CreateRequest) error {
	return c.post("/v1/create", req, nil)
}

// Read reads a byte range.
func (c *Client) Read(req fsproto.ReadRequest) ([]byte, error) {
	return c.postForPayload("/v1/read", req)
}

// Stat fetches file metadata. Stat is side-effect free end to end.
func (c *Client) Stat(req fsproto.StatRequest) (fsproto.StatResponse, error) {
	var resp fsproto.StatResponse
	err := c.post("/v1/stat", req, &resp)
	return resp, err
}

// Write writes and persists a byte range.
func (c *Client) Write(req fsproto.WriteRequest) error {
	data := req.Data
	req.Data = nil
	return c.postFrame("/v1/write", req, data)
}

// Chmod changes permission bits.
func (c *Client) Chmod(req fsproto.ChmodRequest) error {
	return c.post("/v1/chmod", req, nil)
}

// Delete unlinks a file (key removal + page shredding on the shard).
func (c *Client) Delete(req fsproto.DeleteRequest) error {
	return c.post("/v1/delete", req, nil)
}

// KVCreate creates a tenant KV store.
func (c *Client) KVCreate(req fsproto.KVCreateRequest) error {
	return c.post("/v1/kv/create", req, nil)
}

// KVPut stores a value.
func (c *Client) KVPut(req fsproto.KVPutRequest) error {
	value := req.Value
	req.Value = nil
	return c.postFrame("/v1/kv/put", req, value)
}

// KVGet fetches a value.
func (c *Client) KVGet(req fsproto.KVGetRequest) ([]byte, error) {
	return c.postForPayload("/v1/kv/get", req)
}

// KVDelete removes a key, reporting whether it existed.
func (c *Client) KVDelete(req fsproto.KVDeleteRequest) (bool, error) {
	var resp fsproto.KVDeleteResponse
	if err := c.post("/v1/kv/delete", req, &resp); err != nil {
		return false, err
	}
	return resp.Existed, nil
}
