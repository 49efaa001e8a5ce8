package server

import (
	"context"
	"errors"
	"fmt"
	"sort"
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

// errBadToken reports a request carrying no (or an unknown) session token.
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
	// Deterministic switches every shard to schedule-sequence admission.
	Deterministic bool
	// SerialReads disables the concurrent read fast-path, forcing every
	// read-only op through worker admission — the serialized baseline the
	// read-scaling experiments A/B against. Deterministic and admission-
	// logged shards serialize reads regardless of this flag.
	SerialReads bool
	// PerTenantQueue bounds fair-mode per-tenant queues (<= 0 default).
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
	// session keeps its token on the new owner.
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

// Session is one authenticated tenant session.
type Session struct {
	token  string
	tenant string
	gid    uint32
	uid    uint32 // effective kernel uid (never 0)
	pass   string // keyring passphrase; default file-key source

	// st[i] is the session's state on shard i, created and touched only
	// by that shard's worker goroutine.
	st []*sessState
}

// Service is the multi-tenant file service: the shard pool, the session
// table, and the host-side observability registry.
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
	// schedule state.
	cFastReads     *telemetry.Counter
	cFastFallbacks *telemetry.Counter

	// slo is the per-tenant SLO table (slo.go); traceBase/traceSeq mint
	// trace IDs for requests arriving without a client-sent context.
	slo       *sloTable
	traceBase uint64
	traceSeq  atomic.Uint64

	mu       sync.RWMutex
	sessions map[string]*Session
	// moved tombstones tokens whose home shard migrated away: token ->
	// global shard index, answered with WrongShardError so the client
	// re-routes instead of seeing "unknown token".
	moved  map[string]int
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
		sessions:       make(map[string]*Session),
		moved:          make(map[string]int),
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
		sh := NewShardWith(i, cfg, opts.MCMode, opts.Access, opts.Deterministic, opts.PerTenantQueue, reg,
			ShardOptions{ChipSeq: chipSeqFor(opts, i), Log: opts.AdmissionLog, CheckpointEvery: opts.CheckpointEvery})
		svc.byIdx[i] = sh
		svc.shards = append(svc.shards, sh)
	}
	sortShards(svc.shards)
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

func sortShards(shards []*Shard) {
	sort.Slice(shards, func(i, j int) bool { return shards[i].id < shards[j].id })
}

// Shards snapshots the owned shard pool, ordered by global index, under
// the lock: membership changes at migration.
func (svc *Service) Shards() []*Shard {
	svc.mu.RLock()
	defer svc.mu.RUnlock()
	out := make([]*Shard, len(svc.shards))
	copy(out, svc.shards)
	return out
}

// NShards returns the global routing shard count.
func (svc *Service) NShards() int { return svc.nShards }

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

// AdoptShard registers a shard (a promoted replica) under its global index,
// folding sessions reconstructed
// during replay into the service session table. A token with a live session
// here (homed on another shard, or back from an earlier visit) keeps it, with
// the replayed state on this shard: the state every replayer of the log
// gives that token, which no earlier shard of the index's state may stand in
// for. The caller starts the shard afterwards.
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
	sortShards(svc.shards)
	for tok, s := range sh.replaySessions {
		if live, exists := svc.sessions[tok]; exists {
			live.st[sh.id] = s.st[sh.id]
		} else {
			svc.sessions[tok] = s
		}
		// The token came home (e.g. a shard migrating back): clear any
		// tombstone left by a previous departure.
		delete(svc.moved, tok)
	}
	sh.replaySessions = make(map[string]*Session)
	return nil
}

// unregister takes shard idx out of the owned set and drops the sessions
// homed on it, tombstoning their tokens when asked. Caller holds mu.
// Returns nil if the shard is not owned here.
func (svc *Service) unregister(idx int, tombstone bool) *Shard {
	sh := svc.byIdx[idx]
	if sh == nil {
		return nil
	}
	delete(svc.byIdx, idx)
	for i, s := range svc.shards {
		if s == sh {
			svc.shards = append(svc.shards[:i], svc.shards[i+1:]...)
			break
		}
	}
	for tok, s := range svc.sessions {
		if fsproto.ShardIndex(s.gid, svc.nShards) == idx {
			delete(svc.sessions, tok)
			if tombstone {
				svc.moved[tok] = idx
			}
		}
	}
	return sh
}

// RemoveShard unregisters a shard after migration cutover. Sessions homed
// on it are tombstoned (their tokens answer with the routing error) and
// the shard is parked on the retired list so Close still drains its
// worker. Returns nil if the shard is not owned here.
func (svc *Service) RemoveShard(idx int) *Shard {
	svc.mu.Lock()
	defer svc.mu.Unlock()
	sh := svc.unregister(idx, true)
	if sh != nil {
		svc.retiredShards = append(svc.retiredShards, sh)
	}
	return sh
}

// newSession builds a session; euid is the effective kernel uid.
func (svc *Service) newSession(token, tenant string, euid uint32, pass string) *Session {
	return &Session{
		token:  token,
		tenant: tenant,
		gid:    fsproto.TenantGID(tenant),
		uid:    euid,
		pass:   pass,
		st:     make([]*sessState, svc.nShards),
	}
}

// Login authenticates (tenant, uid, passphrase) and opens a session. The
// keyring on the tenant's shard is the credential store (workLogin).
func (svc *Service) Login(ctx context.Context, tenant string, uid uint32, passphrase string, seq uint64) (*Session, error) {
	return svc.login(ctx, &fsproto.LoginRequest{Tenant: tenant, UID: uid, Passphrase: passphrase, Seq: &seq}, nil)
}

// login is Login for a decoded request; wire is the request it arrived in
// (nil: an in-process call), for the admission log.
func (svc *Service) login(ctx context.Context, req *fsproto.LoginRequest, wire *fsproto.Request) (*Session, error) {
	// The session — token included — exists before admission so the login's
	// admission-log record carries it like any other op's: replaying the
	// record rebinds the same token to the same credentials on a migration
	// target or replica.
	token := fmt.Sprintf("%s%d", svc.opts.TokenPrefix, svc.tokSeq.Add(1))
	sess := svc.newSession(token, req.Tenant, fsproto.UserUID(req.Tenant, req.UID), req.Passphrase)
	if _, _, err := svc.exec(ctx, opLogin, sess, req, wire); err != nil {
		return nil, err
	}
	// Register the tenant on the SLO plane at first login so its gauges
	// exist (at zero) before any op traffic.
	svc.slo.tenant(req.Tenant)
	return svc.register(sess)
}

// register enters sess in the session table, or returns the session its
// token already names there (a peer's shadow session, forwarded again).
func (svc *Service) register(sess *Session) (*Session, error) {
	svc.mu.Lock()
	defer svc.mu.Unlock()
	if svc.closed {
		return nil, ErrDraining
	}
	if s, ok := svc.sessions[sess.token]; ok {
		return s, nil
	}
	svc.sessions[sess.token] = sess
	return sess, nil
}

// Logout closes a session. The keyring registration stays: it is the
// tenant user's credential record, not the session.
func (svc *Service) Logout(token string) {
	svc.mu.Lock()
	defer svc.mu.Unlock()
	delete(svc.sessions, token)
}

// session resolves a token.
func (svc *Service) session(token string) (*Session, error) {
	svc.mu.RLock()
	defer svc.mu.RUnlock()
	s, ok := svc.sessions[token]
	if !ok {
		if idx, moved := svc.moved[token]; moved {
			return nil, &WrongShardError{Shard: idx, Epoch: svc.epoch.Load()}
		}
		return nil, errBadToken
	}
	return s, nil
}

// Token returns the session's token (for clients driving the service
// in-process).
func (s *Session) Token() string { return s.token }

// peerSession admits a forwarded request whose session is homed on the
// forwarding node: a fabric peer vouches for the identity in the peer
// headers (the same trust the admission-log replayer extends to record
// credentials), and the session registers here as a shadow so repeated
// forwards reuse its per-shard state. Tenant-level authorization is
// unaffected — it comes from the request body's passphrase.
func (svc *Service) peerSession(req *fsproto.Request) (*Session, error) {
	if !req.Forwarded || req.Peer == nil || req.Token == "" {
		return nil, errBadToken
	}
	return svc.register(svc.newSession(req.Token, req.Peer.Tenant, req.Peer.UID, req.Peer.Pass))
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
// order, annotating each record with its shard index. Each read runs on
// the owning worker (DoSide), so exports serialize with tenant traffic.
func (svc *Service) AuditRecords() []audit.Record {
	ctx, cancel := context.WithTimeout(context.Background(), svc.opts.RequestTimeout)
	defer cancel()
	var out []audit.Record
	for _, sh := range svc.Shards() {
		// A stopped shard has no worker to read its window: skipped.
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

// Close drains the data-plane connections, then every shard in order, and
// drops the session table. After Close, admission returns ErrDraining.
func (svc *Service) Close() {
	ctx, cancel := context.WithTimeout(context.Background(), svc.opts.RequestTimeout)
	svc.Drain(ctx)
	cancel()
	svc.mu.Lock()
	svc.closed = true
	svc.sessions = make(map[string]*Session)
	shards := append([]*Shard(nil), svc.shards...)
	shards = append(shards, svc.retiredShards...)
	svc.retiredShards = nil
	svc.mu.Unlock()
	svc.hop.close()
	for _, sh := range shards {
		sh.Close()
	}
}
