package server

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"fsencr/internal/audit"
	"fsencr/internal/config"
	"fsencr/internal/fsproto"
	"fsencr/internal/kernel"
	"fsencr/internal/memctrl"
	"fsencr/internal/obsplane/journal"
	"fsencr/internal/telemetry"
)

// ErrAuth reports a failed login: the (tenant, uid) pair already holds a
// keyring master key and the presented passphrase does not derive it.
var ErrAuth = errors.New("server: authentication failed")

// errBadToken reports a request carrying no, a malformed or an unknown session
// token.
var errBadToken = fmt.Errorf("%w: unknown session token", ErrAuth)

// DefaultRequestTimeout bounds how long a request may wait for its shard
// (queueing plus execution) before the handler gives up.
const DefaultRequestTimeout = 30 * time.Second

// Options configures a Service.
type Options struct {
	// Shards is the number of simulated machines (<= 0 means 1).
	Shards int
	// MCMode/Access select the protection scheme each shard boots with
	// (typically core.SchemeFsEncr's: memory + file encryption, DAX).
	MCMode memctrl.Mode
	Access kernel.AccessMode
	// Cfg overrides the Table III machine configuration when non-nil.
	Cfg *config.Config
	// SerialReads disables the concurrent read fast-path (file reads, stats
	// and KV gets), forcing every read-only op through admission — the
	// serialized baseline the read-scaling experiments A/B against. A logged
	// shard reads fast too: a read changes no state a replayer must rebuild
	// but its side effects, which the drain logs (applyReads).
	SerialReads bool
	// PerTenantQueue bounds the per-tenant queues (<= 0 default).
	PerTenantQueue int
	// RequestTimeout bounds one request's queue+execute time (<= 0 default).
	RequestTimeout time.Duration

	// ClusterShards is the global number of shards in the cluster routing
	// space (0: standalone, equal to Shards). Tenant placement always
	// hashes over this count so every node of a cluster routes identically.
	ClusterShards int
	// OwnedShards lists the global shard indices this node boots and owns
	// (nil: 0..Shards-1, the standalone layout).
	OwnedShards []int
	// TokenPrefix namespaces session tokens per node ("" = "t") so tokens
	// minted on different nodes of one cluster never collide — a migrated
	// session keeps its token on the new owner. A token is
	// <prefix><seq>.<home shard>.
	TokenPrefix string
	// ChipSeqBase, when non-zero, boots global shard i with controller chip
	// sequence ChipSeqBase+i. Every node of a cluster must share the base:
	// migration targets and replicas must derive the source's exact
	// processor keys, or neither ciphertext nor sealed OTT records would
	// authenticate. Zero keeps per-process auto sequences (standalone).
	ChipSeqBase uint64
	// AdmissionLog records every admitted request into its shard's
	// admission log — the replay substrate of migration and replication.
	AdmissionLog bool
	// CheckpointEvery folds a Merkle-root checkpoint into the admission log
	// every N operation records (0: only at migration freeze).
	CheckpointEvery int
}

// DefaultChipSeqBase is the conventional cluster-wide chip sequence base
// (any agreed-upon non-zero value works; nodes must just share it).
const DefaultChipSeqBase = 0xf5e0c000

// WrongShardError reports a request routed to a node that does not (or no
// longer) own(s) the target shard at this node's routing-table epoch. The
// HTTP layer maps it to 421 + CodeEpochMismatch; cluster-aware clients
// refresh their table and retry at the owner.
type WrongShardError struct {
	Shard int
	Epoch uint64
}

func (e *WrongShardError) Error() string {
	return fmt.Sprintf("server: shard %d not owned here (epoch %d)", e.Shard, e.Epoch)
}

// ErrDiverged reports an admission-log replay whose regenerated state
// disagrees with the source — a checkpoint or image Merkle root mismatch.
var ErrDiverged = errors.New("server: admission-log replay diverged")

// Session is one authenticated tenant session: a token and the credentials
// its ops act with. What the token did on a shard is the shard's (sessState),
// and moves with the shard's log, not with this object. The token names its
// home shard, the tenant's, whose table alone says whether it is live.
type Session struct {
	token  string
	tenant string
	gid    uint32
	uid    uint32 // effective kernel uid (never 0)
	pass   string // keyring passphrase; default file-key source
}

// Service is the multi-tenant file service: the shard pool and the host-side
// observability registry. Sessions live in their home shards' tables.
type Service struct {
	opts Options
	// nShards is the global routing shard count; shards holds the owned
	// shards ordered by global index and byIdx maps global index -> shard.
	// Both are guarded by mu: cluster membership changes at migration.
	nShards int
	shards  []*Shard
	byIdx   map[int]*Shard
	// retiredShards keeps post-migration source shards alive (they answer
	// stragglers with the routing error) until Close.
	retiredShards []*Shard

	// epoch is the routing-table epoch this node serves at; fwd holds the
	// Forwarder used to proxy misrouted requests to their owner, over hop's
	// connections.
	epoch  atomic.Uint64
	gEpoch *telemetry.Gauge
	cFwd   *telemetry.Counter
	fwd    atomic.Value
	hop    hopConns

	// rt is the /v1 route table, one for both transports (http.go); conns
	// tracks the connections the request loop holds.
	rt    map[string]route
	conns dataConns

	// reg is the host-side registry: request latencies in wall-clock
	// nanoseconds, queue depths, denial counters. Deliberately separate
	// from the per-shard deterministic registries.
	reg       *telemetry.Registry
	hReqNs    *telemetry.Histogram
	cReqs     *telemetry.Counter
	cErrs     *telemetry.Counter
	cAuthFail *telemetry.Counter
	cXDenied  *telemetry.Counter
	cBusy     *telemetry.Counter
	cEncErrs  *telemetry.Counter
	gJrnDrops *telemetry.Gauge
	// Fast-path accounting lives on the host registry, never the per-shard
	// deterministic ones: fast reads are wall-clock concurrency, not
	// logged state.
	cFastReads     *telemetry.Counter
	cFastFallbacks *telemetry.Counter

	// slo is the per-tenant SLO table (slo.go); traceBase/traceSeq mint
	// trace IDs for requests arriving without a client-sent context.
	slo       *sloTable
	traceBase uint64
	traceSeq  atomic.Uint64

	mu     sync.RWMutex
	closed bool
	tokSeq atomic.Uint64
}

// New builds the service and boots its shards.
func New(opts Options) *Service {
	if opts.Shards <= 0 {
		opts.Shards = 1
	}
	if opts.ClusterShards <= 0 {
		opts.ClusterShards = opts.Shards
	}
	if opts.TokenPrefix == "" {
		opts.TokenPrefix = "t"
	}
	if opts.RequestTimeout <= 0 {
		opts.RequestTimeout = DefaultRequestTimeout
	}
	cfg := opts.config()
	reg := telemetry.New()
	svc := &Service{
		opts:           opts,
		reg:            reg,
		hReqNs:         reg.Histogram("server.request_ns"),
		cReqs:          reg.Counter("server.requests_total"),
		cErrs:          reg.Counter("server.request_errors_total"),
		cAuthFail:      reg.Counter("server.auth_failures_total"),
		cXDenied:       reg.Counter("server.cross_tenant_denials_total"),
		cBusy:          reg.Counter("server.busy_rejections_total"),
		cEncErrs:       reg.Counter("server.response_encode_errors_total"),
		gJrnDrops:      reg.Gauge("journal.drops_total"),
		cFastReads:     reg.Counter("server.fast_reads_total"),
		cFastFallbacks: reg.Counter("server.fast_read_fallbacks_total"),
		slo:            newSLOTable(reg),
		traceBase:      0x66_73_65_6e_63_72, // "fsencr": fixed, IDs still unique via traceSeq
		nShards:        opts.ClusterShards,
		byIdx:          make(map[int]*Shard),
		gEpoch:         reg.Gauge("cluster.epoch"),
		cFwd:           reg.Counter("server.forwarded_total"),
	}
	svc.rt = svc.routes()
	svc.conns.gOpen, svc.conns.cTaken = reg.Gauge("server.data_conns"), reg.Counter("server.conn_takeovers_total")
	owned := opts.OwnedShards
	if owned == nil {
		for i := 0; i < opts.Shards; i++ {
			owned = append(owned, i)
		}
	}
	for _, i := range owned {
		sh := NewShardWith(i, cfg, opts.MCMode, opts.Access, opts.PerTenantQueue, reg,
			ShardOptions{ChipSeq: chipSeqFor(opts, i), Log: opts.AdmissionLog, CheckpointEvery: opts.CheckpointEvery})
		svc.byIdx[i] = sh
		svc.shards = append(svc.shards, sh)
	}
	slices.SortFunc(svc.shards, byID)
	return svc
}

// config is the machine configuration every shard boots with.
func (opts Options) config() config.Config {
	if opts.Cfg != nil {
		return *opts.Cfg
	}
	return config.Default()
}

// chipSeqFor derives global shard i's controller chip sequence.
func chipSeqFor(opts Options, i int) uint64 {
	if opts.ChipSeqBase == 0 {
		return 0
	}
	return opts.ChipSeqBase + uint64(i)
}

func byID(a, b *Shard) int { return a.id - b.id }

// Shards snapshots the owned shard pool, ordered by global index, under
// the lock: membership changes at migration.
func (svc *Service) Shards() []*Shard {
	svc.mu.RLock()
	defer svc.mu.RUnlock()
	return slices.Clone(svc.shards)
}

// Registry exposes the host-side registry.
func (svc *Service) Registry() *telemetry.Registry { return svc.reg }

// shardAt returns the owned shard at global index idx, or the routing
// error when it lives on another node.
func (svc *Service) shardAt(idx int) (*Shard, error) {
	svc.mu.RLock()
	sh := svc.byIdx[idx]
	svc.mu.RUnlock()
	if sh == nil {
		return nil, &WrongShardError{Shard: idx, Epoch: svc.epoch.Load()}
	}
	return sh, nil
}

// SetClusterEpoch publishes the routing-table epoch this node serves at:
// 421 responses carry it and the cluster.epoch gauge lands on /metrics.
func (svc *Service) SetClusterEpoch(e uint64) {
	svc.epoch.Store(e)
	svc.gEpoch.Set(e)
}

// ClusterEpoch returns the published routing-table epoch.
func (svc *Service) ClusterEpoch() uint64 { return svc.epoch.Load() }

// Forwarder resolves a global shard index to the base URL of its owning
// node ("" or !ok: unknown — answer 421 and let the client re-route).
type Forwarder func(shard int) (base string, ok bool)

// SetForwarder installs the owner lookup used to proxy misrouted requests
// during a migration's cutover window.
func (svc *Service) SetForwarder(f Forwarder) { svc.fwd.Store(f) }

func (svc *Service) forwarder() Forwarder {
	if f, ok := svc.fwd.Load().(Forwarder); ok {
		return f
	}
	return nil
}

// AdoptShard registers a shard (a promoted replica) under its global index.
// The tokens homed on it are live here from then on: the ones its table holds,
// which a failed login or an ended session is not. The caller starts the shard
// afterwards.
func (svc *Service) AdoptShard(sh *Shard) error {
	svc.mu.Lock()
	defer svc.mu.Unlock()
	if svc.closed {
		return ErrDraining
	}
	if _, ok := svc.byIdx[sh.id]; ok {
		return fmt.Errorf("server: shard %d already owned", sh.id)
	}
	svc.byIdx[sh.id] = sh
	svc.shards = append(svc.shards, sh)
	slices.SortFunc(svc.shards, byID)
	return nil
}

// unregister takes shard idx out of the owned set, and with it the tokens
// homed there: they answer with the routing error from then on. Caller holds
// mu. Returns nil if the shard is not owned here.
func (svc *Service) unregister(idx int) *Shard {
	sh := svc.byIdx[idx]
	if sh == nil {
		return nil
	}
	delete(svc.byIdx, idx)
	svc.shards = slices.DeleteFunc(svc.shards, func(s *Shard) bool { return s == sh })
	return sh
}

// RemoveShard unregisters a shard after migration cutover and parks it on the
// retired list so Close still drains it. Returns nil if the shard is
// not owned here.
func (svc *Service) RemoveShard(idx int) *Shard {
	svc.mu.Lock()
	defer svc.mu.Unlock()
	sh := svc.unregister(idx)
	if sh != nil {
		svc.retiredShards = append(svc.retiredShards, sh)
	}
	return sh
}

// newSession builds a session; euid is the effective kernel uid.
func newSession(token, tenant string, euid uint32, pass string) *Session {
	return &Session{token: token, tenant: tenant, gid: fsproto.TenantGID(tenant), uid: euid, pass: pass}
}

// Login authenticates (tenant, uid, passphrase) and opens a session. The
// keyring on the tenant's shard is the credential store (workLogin). The last
// parameter is ignored; it remains for existing callers.
func (svc *Service) Login(ctx context.Context, tenant string, uid uint32, passphrase string, _ uint64) (*Session, error) {
	return svc.login(ctx, &fsproto.LoginRequest{Tenant: tenant, UID: uid, Passphrase: passphrase}, nil)
}

// login is Login for a decoded request; wire is the request it arrived in
// (nil: an in-process call), for the admission log.
func (svc *Service) login(ctx context.Context, req *fsproto.LoginRequest, wire *fsproto.Request) (*Session, error) {
	// The session — token included — exists before admission so the login's
	// admission-log record carries it like any other op's: replaying the
	// record rebinds the same token to the same credentials on a migration
	// target or replica. The token names its home, the tenant's shard, where
	// a successful login enters it in the table (workLogin).
	home := fsproto.ShardIndex(fsproto.TenantGID(req.Tenant), svc.nShards)
	token := fmt.Sprintf("%s%d.%d", svc.opts.TokenPrefix, svc.tokSeq.Add(1), home)
	sess := newSession(token, req.Tenant, fsproto.UserUID(req.Tenant, req.UID), req.Passphrase)
	if _, _, err := svc.exec(ctx, opLogin, sess, req, wire); err != nil {
		return nil, err
	}
	// Register the tenant on the SLO plane at first login so its gauges
	// exist (at zero) before any op traffic.
	svc.slo.tenant(req.Tenant)
	return sess, nil
}

// Logout closes a session: every owned shard drops the token's state and logs
// the logout, so neither this node nor a replica or migration target resolves
// the token again (the error names a shard that did not answer). The keyring
// registration stays: it is the user's credential, not a session.
func (svc *Service) Logout(token string) error {
	ctx, cancel := context.WithTimeout(context.Background(), svc.opts.RequestTimeout)
	defer cancel()
	var errs []error
	for _, sh := range svc.Shards() {
		errs = append(errs, sh.DoSide(ctx, func() { sh.logout(token) }))
	}
	return errors.Join(errs...)
}

// session resolves a token through its home shard's table: the routing error
// when that shard is owned elsewhere, errBadToken when the token is malformed
// or the table does not hold it.
func (svc *Service) session(token string) (*Session, error) {
	home := svc.tokenHome(token)
	if home < 0 {
		return nil, errBadToken
	}
	sh, err := svc.shardAt(home)
	if err != nil {
		return nil, err
	}
	sh.sessMu.RLock()
	st := sh.sess[token]
	sh.sessMu.RUnlock()
	if st == nil {
		return nil, errBadToken
	}
	return st.sess, nil
}

// tokenHome parses the home shard a token names after its last '.', without
// allocating: -1 for a token with no such digits or an index outside the
// routing space, which also bounds the parse.
func (svc *Service) tokenHome(token string) int {
	digits := token[strings.LastIndexByte(token, '.')+1:]
	if len(digits) == 0 || len(digits) == len(token) {
		return -1
	}
	home := 0
	for _, c := range []byte(digits) {
		if home = home*10 + int(c-'0'); c < '0' || c > '9' || home >= svc.nShards {
			return -1
		}
	}
	return home
}

// peerSession is the session a forwarded request acts as when its token is
// homed on the forwarding node: a fabric peer vouches for the identity in the
// peer headers (the same trust the admission-log replayer extends to record
// credentials), for this one request — nothing is registered. The token's
// state on the target shard is the shard's, found by token as any session's.
// nil when req carries no peer identity.
func peerSession(req *fsproto.Request) *Session {
	if !req.Forwarded || req.Peer == nil || req.Token == "" {
		return nil
	}
	return newSession(req.Token, req.Peer.Tenant, req.Peer.UID, req.Peer.Pass)
}

// MetricsSnapshot merges the host-side registry with every shard's
// deterministic registry, in shard order. Aggregate only — per-shard
// snapshots are served separately so their byte-identity is checkable.
// Export-time gauges are refreshed here: the audit chain head of each
// shard, the total number of journal events dropped to ring overflow, and
// the admission logs' bytes and records.
func (svc *Service) MetricsSnapshot() *telemetry.Snapshot {
	var drops, logBytes, logRecs uint64
	shards := svc.Shards()
	for _, sh := range shards {
		svc.reg.Gauge(fmt.Sprintf("server.shard%d.audit_head_seq", sh.ID())).Set(sh.Aud.HeadSeq())
		drops += sh.Jrn.Drops()
		logBytes += sh.log.bytes.Load()
		logRecs += sh.log.recs.Load()
	}
	svc.gJrnDrops.Set(drops)
	svc.reg.Gauge("server.log_bytes").Set(logBytes)
	svc.reg.Gauge("server.log_records").Set(logRecs)
	out := svc.reg.Snapshot()
	out.Runs = 1
	svc.injectSLOGauges(out)
	for _, sh := range shards {
		out.Merge(sh.Snapshot())
	}
	return out
}

// AuditRecords reads back every shard's retained audit window, in shard
// order, annotating each record with its shard index. Each read is side
// work (DoSide), so exports serialize with tenant traffic.
func (svc *Service) AuditRecords() []audit.Record {
	ctx, cancel := context.WithTimeout(context.Background(), svc.opts.RequestTimeout)
	defer cancel()
	var out []audit.Record
	for _, sh := range svc.Shards() {
		// A closed shard's window is not read: skipped.
		_ = sh.DoSide(ctx, func() {
			recs := sh.Aud.Records()
			for i := range recs {
				recs[i].Shard = sh.ID()
			}
			out = append(out, recs...)
		})
	}
	return out
}

// VerifyAudit recomputes every shard's audit hash chain against its head
// register, returning the first break found.
func (svc *Service) VerifyAudit() error {
	ctx, cancel := context.WithTimeout(context.Background(), svc.opts.RequestTimeout)
	defer cancel()
	for _, sh := range svc.Shards() {
		var verr error
		if err := sh.DoSide(ctx, func() { verr = sh.Aud.Verify() }); err != nil {
			return err
		}
		if verr != nil {
			return fmt.Errorf("shard %d: %w", sh.ID(), verr)
		}
	}
	return nil
}

// JournalEvents concatenates the shard journals in shard order,
// reassigning global sequence numbers.
func (svc *Service) JournalEvents() []journal.Event {
	var out []journal.Event
	for _, sh := range svc.Shards() {
		out = append(out, sh.Jrn.Events()...)
	}
	for i := range out {
		out[i].Seq = uint64(i)
	}
	return out
}

// Drain ends the data-plane connections the request loop has taken over
// from net/http, whose Shutdown no longer sees them: a request in flight is
// answered (with "Connection: close"), an idle connection is closed, and
// whatever is still open when ctx ends is cut. From then on no connection
// is taken over. Close drains too, bounded by the request timeout; a server
// with a drain bound of its own calls Drain first.
func (svc *Service) Drain(ctx context.Context) { svc.conns.drain(ctx) }

// Close drains the data-plane connections, then every shard in order. After
// Close, admission returns ErrDraining.
func (svc *Service) Close() {
	ctx, cancel := context.WithTimeout(context.Background(), svc.opts.RequestTimeout)
	svc.Drain(ctx)
	cancel()
	svc.mu.Lock()
	svc.closed = true
	shards := append([]*Shard(nil), svc.shards...)
	shards = append(shards, svc.retiredShards...)
	svc.retiredShards = nil
	svc.mu.Unlock()
	svc.hop.close()
	for _, sh := range shards {
		sh.Close()
	}
}
