// Package fsproto is the wire protocol of fsencrd, the multi-tenant
// encrypted file service: the JSON request/response shapes of the /v1 API
// and the tenant-identity mapping both ends must agree on.
//
// The mapping functions are protocol, not implementation detail: the
// server places a tenant's state on the shard derived from its group ID,
// and a cluster client routes a tenant to that shard's owner by the same
// mapping.
package fsproto

import (
	"hash/fnv"
	"strconv"
	"strings"

	"fsencr/internal/counters"
)

// TenantGID maps a tenant name onto its 18-bit sharing-group ID — the
// GroupID the kernel sends to the memory controller for every file the
// tenant owns. The mapping is a stable FNV hash, never zero (gid 0 is
// reserved), so a tenant lands on the same group and shard across server
// restarts.
func TenantGID(tenant string) uint32 {
	h := fnv.New32a()
	h.Write([]byte(tenant))
	gid := h.Sum32() & counters.MaxGroupID
	if gid == 0 {
		gid = 1
	}
	return gid
}

// UserUID maps (tenant, uid) onto a nonzero effective kernel uid. Setting
// a high bit guarantees the result is never 0 (root would bypass every
// permission check) and keeps uids from different tenants from colliding
// with small literal uids.
func UserUID(tenant string, uid uint32) uint32 {
	h := fnv.New32a()
	h.Write([]byte(tenant))
	h.Write([]byte{':', byte(uid), byte(uid >> 8), byte(uid >> 16), byte(uid >> 24)})
	return h.Sum32() | 1<<30
}

// ShardIndex maps a tenant's group ID onto one of n shards.
func ShardIndex(gid uint32, n int) int {
	if n <= 0 {
		return 0
	}
	return int(gid % uint32(n))
}

// TokenHeader carries the session token on authenticated requests.
const TokenHeader = "X-Fsencr-Token"

// ForwardedHeader marks a request the cluster routing plane has already
// forwarded once. A node receiving a misrouted request with this header set
// answers CodeEpochMismatch instead of forwarding again, so a stale table
// on two nodes cannot bounce a request in a loop.
const ForwardedHeader = "X-Fsencr-Forwarded"

// Peer headers ride on a forwarded request whose session is homed on the
// forwarding node: the owner of the target shard acts as the session they
// name for that one request and registers nothing (the same trust the
// admission-log replayer extends to record credentials — fabric peers are
// inside the trust boundary; tenant-level authorization still comes from the
// request body's passphrase). Nothing authenticates the peer yet: any client
// that sets ForwardedHeader can claim any identity here.
const (
	PeerTenantHeader = "X-Fsencr-Peer-Tenant"
	PeerUIDHeader    = "X-Fsencr-Peer-Uid"
	PeerPassHeader   = "X-Fsencr-Peer-Pass"
)

// TraceHeader carries the request's TraceContext from client to server;
// RequestIDHeader echoes the trace ID back on every response so a
// client-side failure is joinable to the server-side trace.
const (
	TraceHeader     = "X-Fsencr-Trace"
	RequestIDHeader = "X-Request-Id"
)

// QueueDepthHeader rides on 429 (busy) responses carrying the rejecting
// shard's admitted-but-unserved task count. Clients scale their retry
// backoff by it: a shallow queue means the burst is already draining and a
// quick retry will land, a deep one means genuine congestion. Transport
// faults carry no hint and keep the conservative exponential backoff.
const QueueDepthHeader = "X-Fsencr-Queue-Depth"

// TraceContext is the request-trace identity a client mints and the server
// threads through admission, shard, kernel, controller and PCM timing.
type TraceContext struct {
	// TraceID groups every span of one request; 0 means "no trace".
	TraceID uint64
	// Parent is the caller's enclosing span ID (0 when the trace starts
	// at the client).
	Parent uint64
	// Sampled is the head decision: unsampled requests record no spans at
	// all. The server's tail sampler decides keep/drop among sampled ones.
	Sampled bool
}

// String renders the context for the wire header: "traceID-parent-flag"
// with hex IDs, e.g. "00c3a4d2b1e90f77-0-1".
func (tc TraceContext) String() string { return string(tc.appendTo(nil)) }

// appendHex16 appends v as 16 hex digits.
func appendHex16(b []byte, v uint64) []byte {
	const digits = "0123456789abcdef"
	for shift := 60; shift >= 0; shift -= 4 {
		b = append(b, digits[v>>shift&0xf])
	}
	return b
}

// appendTo appends the wire form to b.
func (tc TraceContext) appendTo(b []byte) []byte {
	b = append(appendHex16(b, tc.TraceID), '-')
	b = strconv.AppendUint(b, tc.Parent, 16)
	if tc.Sampled {
		return append(b, "-1"...)
	}
	return append(b, "-0"...)
}

// ParseTraceContext parses the wire form. A malformed or empty value
// yields (zero, false): the request simply goes untraced.
func ParseTraceContext(s string) (TraceContext, bool) {
	idHex, rest, _ := strings.Cut(s, "-")
	parentHex, flag, ok := strings.Cut(rest, "-")
	if !ok || strings.Contains(flag, "-") {
		return TraceContext{}, false
	}
	id, err := strconv.ParseUint(idHex, 16, 64)
	if err != nil || id == 0 {
		return TraceContext{}, false
	}
	parent, err := strconv.ParseUint(parentHex, 16, 64)
	if err != nil {
		return TraceContext{}, false
	}
	return TraceContext{TraceID: id, Parent: parent, Sampled: flag == "1"}, true
}

// FormatRequestID renders a trace ID for the X-Request-Id response header.
func FormatRequestID(id uint64) string { return string(appendHex16(nil, id)) }

// Error is the JSON body of every non-2xx response. Code is stable and
// machine-checkable; Message is for humans.
type Error struct {
	Code    string `json:"code"`
	Message string `json:"message"`
}

// Stable error codes.
const (
	CodeAuth            = "auth"             // login passphrase mismatch / bad token
	CodePermission      = "permission"       // Unix permission bits denied the access
	CodeWrongPassphrase = "wrong_passphrase" // per-file key did not verify
	CodeNotFound        = "not_found"
	CodeExists          = "exists"
	CodeBusy            = "busy"     // per-tenant queue full (backpressure)
	CodeDraining        = "draining" // server shutting down
	CodeTimeout         = "timeout"
	CodeBadRequest      = "bad_request"
	CodeInternal        = "internal"
	// CodeEpochMismatch reports a request routed to a node that no longer
	// (or does not yet) own the tenant's shard: the client's placement
	// table is from an older epoch. Clients refresh their table from the
	// coordinator and retry.
	CodeEpochMismatch = "epoch_mismatch"
)

// LoginRequest opens a tenant session. The passphrase becomes the
// session's keyring master credential: the first login for (tenant, uid)
// registers it, later logins must present a passphrase deriving the same
// master key or are rejected with CodeAuth.
type LoginRequest struct {
	Tenant     string `json:"tenant"`
	UID        uint32 `json:"uid"`
	Passphrase string `json:"passphrase"`
}

// LoginResponse returns the session token.
type LoginResponse struct {
	Token string `json:"token"`
	// GID/Shard echo the server-side placement (useful for debugging and
	// for clients cross-checking their own mapping).
	GID   uint32 `json:"gid"`
	Shard int    `json:"shard"`
}

// CreateRequest creates (and for encrypted files, keys) a file in the
// session tenant's namespace.
type CreateRequest struct {
	Name      string `json:"name"`
	Perm      uint16 `json:"perm"`
	Size      uint64 `json:"size"`
	Encrypted bool   `json:"encrypted"`
	// Passphrase overrides the session passphrase as the file key source
	// (e.g. a group-shared file key). Empty means the session passphrase.
	Passphrase string `json:"passphrase,omitempty"`
}

// ReadRequest reads [Offset, Offset+Length) of a file. Tenant targets
// another tenant's namespace (the cross-tenant case the kernel must deny);
// empty means the session's own.
type ReadRequest struct {
	Name       string `json:"name"`
	Tenant     string `json:"tenant,omitempty"`
	Offset     uint64 `json:"offset"`
	Length     int    `json:"length"`
	Passphrase string `json:"passphrase,omitempty"`
}

// ReadResponse carries the plaintext bytes (base64 on the wire).
type ReadResponse struct {
	Data []byte `json:"data"`
}

// StatRequest fetches file metadata. Stat is read-only and side-effect
// free end to end: the server answers it under the shard's read lock when
// the fast-path is available, and as side work otherwise — it
// takes no fairness slot and is never logged.
type StatRequest struct {
	Name   string `json:"name"`
	Tenant string `json:"tenant,omitempty"`
}

// StatResponse carries the inode's metadata. Name is the full
// tenant-prefixed name the file is stored under.
type StatResponse struct {
	Name      string `json:"name"`
	Size      uint64 `json:"size"`
	Perm      uint16 `json:"perm"`
	Encrypted bool   `json:"encrypted"`
	Pages     int    `json:"pages"`
}

// WriteRequest writes Data at Offset.
type WriteRequest struct {
	Name       string `json:"name"`
	Tenant     string `json:"tenant,omitempty"`
	Offset     uint64 `json:"offset"`
	Data       []byte `json:"data"`
	Passphrase string `json:"passphrase,omitempty"`
}

// ChmodRequest changes permission bits (owner or root only).
type ChmodRequest struct {
	Name   string `json:"name"`
	Tenant string `json:"tenant,omitempty"`
	Perm   uint16 `json:"perm"`
}

// DeleteRequest unlinks a file: key removal plus Silent-Shredder page
// shredding on the shard's machine.
type DeleteRequest struct {
	Name   string `json:"name"`
	Tenant string `json:"tenant,omitempty"`
}

// OKResponse is the body of operations with no payload.
type OKResponse struct {
	OK bool `json:"ok"`
}

// KVCreateRequest creates a tenant key-value store: an encrypted pool
// file holding a persistent B+Tree (internal/kvstore).
type KVCreateRequest struct {
	Store      string `json:"store"`
	Size       uint64 `json:"size"`
	Passphrase string `json:"passphrase,omitempty"`
}

// KVPutRequest stores Value under Key.
type KVPutRequest struct {
	Store      string `json:"store"`
	Tenant     string `json:"tenant,omitempty"`
	Key        uint64 `json:"key"`
	Value      []byte `json:"value"`
	Passphrase string `json:"passphrase,omitempty"`
}

// KVGetRequest fetches the value under Key.
type KVGetRequest struct {
	Store      string `json:"store"`
	Tenant     string `json:"tenant,omitempty"`
	Key        uint64 `json:"key"`
	Passphrase string `json:"passphrase,omitempty"`
}

// KVGetResponse carries the fetched value.
type KVGetResponse struct {
	Value []byte `json:"value"`
}

// KVDeleteRequest removes Key.
type KVDeleteRequest struct {
	Store      string `json:"store"`
	Tenant     string `json:"tenant,omitempty"`
	Key        uint64 `json:"key"`
	Passphrase string `json:"passphrase,omitempty"`
}

// KVDeleteResponse reports whether the key existed.
type KVDeleteResponse struct {
	Existed bool `json:"existed"`
}
