// Package server is the multi-tenant encrypted file service over the
// FsEncr machine model: fsencrd's request-processing layer.
//
// The service multiplexes many concurrent network clients onto a pool of
// sharded simulated machines. Each Shard owns one kernel.System — machine,
// DAX filesystem, keyring, OTT — and a single worker goroutine that is the
// only code ever touching that system, so the simulation stays exactly as
// deterministic as it is in-process while independent tenants run in
// parallel on different shards (tenant -> shard by GroupID hash).
//
// Two admission disciplines are supported:
//
//   - Fair (default): per-tenant FIFO queues drained round-robin, so one
//     tenant flooding the shard cannot starve its neighbours, with bounded
//     per-tenant depth for backpressure (ErrBusy once the queue is full
//     and the caller's context expires).
//   - Deterministic: every request carries a per-shard schedule sequence
//     number and the worker admits strictly in sequence order, reordering
//     whatever the network delivers. Per-shard simulated state — clocks,
//     caches, telemetry, the security journal — becomes a pure function
//     of the schedule, byte-identical across reruns.
package server

import (
	"context"
	"errors"
	"fmt"
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

// Admission errors.
var (
	// ErrBusy reports per-tenant backpressure: the tenant's queue stayed
	// full for the caller's whole context window.
	ErrBusy = errors.New("server: tenant queue full")
	// ErrDraining reports a shard that has stopped admitting (graceful
	// shutdown in progress).
	ErrDraining = errors.New("server: shard draining")
)

// BusyError is the concrete backpressure rejection: it unwraps to ErrBusy
// (existing errors.Is checks keep working) and carries the shard's admitted
// queue depth at rejection time. The HTTP layer exports the depth as the
// queue-depth hint header so clients can scale their retry backoff to how
// congested the shard actually is instead of backing off blind.
type BusyError struct {
	Tenant uint32
	Depth  int64
}

func (e *BusyError) Error() string {
	return fmt.Sprintf("%s (tenant %d)", ErrBusy, e.Tenant)
}

// Unwrap keeps errors.Is(err, ErrBusy) true.
func (e *BusyError) Unwrap() error { return ErrBusy }

// DefaultPerTenantQueue bounds how many requests one tenant may have
// admitted-but-unserved on a shard before backpressure kicks in.
const DefaultPerTenantQueue = 64

type taskResult struct {
	v   any
	err error
}

// task is one unit of admitted work: a closure executed on the shard's
// worker goroutine.
type task struct {
	seq     uint64
	tenant  uint32
	fn      func() (any, error)
	resp    chan taskResult // buffered(1): the worker never blocks on it
	release func()          // returns the per-tenant queue slot
	// name labels the request's root span ("write", "kv_get", ...).
	name string
	// trace is the request's wire trace context (zero: untraced).
	trace fsproto.TraceContext
	// enq is the shard clock when the worker absorbed the task (fair mode
	// only): the start of the measurable queue wait. Deterministic mode
	// leaves it 0 — arrival interleaving is not schedule state there.
	enq uint64
	// rec, when non-nil, is the admission-log record the worker appends
	// after executing the task (cluster mode).
	rec *fsproto.LogRecord
}

// sideTask is out-of-band worker work; done is closed after fn ran.
type sideTask struct {
	fn   func()
	done chan struct{}
}

// Shard is one simulated machine plus its serializing worker.
type Shard struct {
	id  int
	det bool

	// Sys is the shard's booted system. Only the worker goroutine may
	// call into it; everyone else goes through Do.
	Sys *kernel.System
	// Reg is the shard's deterministic telemetry registry: every value in
	// it derives from simulated cycles, so with a deterministic schedule
	// its snapshot is byte-identical across reruns.
	Reg *telemetry.Registry
	// Jrn is the shard's security-event journal (kernel/machine emissions
	// plus the server's cross-tenant denial and auth-failure events, all
	// emitted on the worker in admission order).
	Jrn *journal.Journal
	// Aud is the shard's tamper-evident access-audit log, appended to by
	// the shard's memory controller as tenant page traffic flows. Its
	// device window may only be read on the worker; use DoSide.
	Aud *audit.Log

	ingress chan task
	// side carries observability work (audit export/verify) that must run
	// on the worker but outside both admission disciplines, so a scrape
	// never consumes a deterministic-schedule slot or a fairness turn.
	side chan sideTask

	mu        sync.Mutex
	draining  bool
	sems      map[uint32]chan struct{}
	perTenant int

	inflight sync.WaitGroup
	depth    atomic.Int64
	gDepth   *telemetry.Gauge
	cServed  *telemetry.Counter

	// Concurrent read fast-path plane (fastread.go). rmu excludes snapshot
	// readers from worker mutations; ver is the seqlock epoch the readers
	// validate (odd while a mutation batch is in progress); deltas is the
	// lock-free stack of deferred read side effects the worker folds into
	// the controller at its next mutation — pendingDeltas counts them and
	// drainAsked is up while a reader's request for a drain is outstanding
	// (pushDelta) — and the pools recycle per-goroutine reader contexts and
	// delta buffers.
	rmu           sync.RWMutex
	ver           atomic.Uint64
	deltas        atomic.Pointer[deltaNode]
	pendingDeltas atomic.Int64
	drainAsked    atomic.Bool
	readPool      sync.Pool
	deltaPool     sync.Pool

	// Request-trace plane (worker-only, deterministic): scope buffers one
	// request's spans until the tail sampler's keep/drop decision; the
	// per-tenant histogram caches avoid registry map lookups per request.
	scope   *telemetry.TraceScope
	sampler *telemetry.TailSampler
	hQWait  map[uint32]*telemetry.Histogram
	hSvc    map[uint32]*telemetry.Histogram

	stop    chan struct{}
	stopped chan struct{}
	started atomic.Bool

	// Cluster plane. chipSeq is the controller key-derivation sequence the
	// shard booted with (0: per-process auto). logOn enables the admission
	// log; recs and the checkpoint/schedule cursors below are worker-only
	// (readers go through DoSide or a Hold). detNext is the next
	// deterministic schedule sequence — a field rather than a loop local so
	// a shard rehydrated by log replay continues the schedule exactly where
	// the source stopped. retired, once set, is answered to every task
	// instead of executing it: the shard has migrated away.
	chipSeq   uint64
	logOn     bool
	recs      []fsproto.LogRecord
	ckptEvery int
	sinceCkpt int
	detNext   uint64
	retired   error
	// replaySessions stages sessions reconstructed from login records
	// during replay; AdoptShard folds them into the service session table.
	replaySessions map[string]*Session
}

// traceKeepEvery is the tail sampler's probabilistic keep rate for traces
// that are neither errors nor slow-decile: 1 in traceKeepEvery.
const traceKeepEvery = 8

// NewShard boots a system for shard id and starts its worker.
// deterministic selects the admission discipline; perTenant bounds the
// fair-mode queues (<= 0 uses DefaultPerTenantQueue). serverReg is the
// host-side (non-deterministic) registry receiving the shard's queue-depth
// gauge; nil is allowed.
func NewShard(id int, cfg config.Config, mode memctrl.Mode, access kernel.AccessMode, deterministic bool, perTenant int, serverReg *telemetry.Registry) *Shard {
	return NewShardWith(id, cfg, mode, access, deterministic, perTenant, serverReg, ShardOptions{})
}

// ShardOptions carries the cluster-plane knobs of a shard.
type ShardOptions struct {
	// ChipSeq is the controller key-derivation sequence (0: auto). Cluster
	// shards use a deterministic per-global-index sequence so migration
	// targets and replicas derive the source's exact processor keys.
	ChipSeq uint64
	// Log enables the admission log (required for migration/replication).
	Log bool
	// CheckpointEvery folds a Merkle-root checkpoint into the log every N
	// operation records (0: checkpoints only at migration freeze).
	CheckpointEvery int
	// Detached boots the shard without starting its worker: the caller
	// replays an admission log into it first, then calls Start.
	Detached bool
}

// NewShardWith is NewShard plus cluster-plane options.
func NewShardWith(id int, cfg config.Config, mode memctrl.Mode, access kernel.AccessMode, deterministic bool, perTenant int, serverReg *telemetry.Registry, so ShardOptions) *Shard {
	if perTenant <= 0 {
		perTenant = DefaultPerTenantQueue
	}
	sys := kernel.BootSeq(cfg, mode, access, so.ChipSeq)
	reg := telemetry.New()
	// Attach the trace scope before Instrument: components cache the scope
	// pointer at Instrument time and it must already be in place.
	scope := telemetry.NewTraceScope()
	reg.AttachTraceScope(scope)
	sys.Instrument(reg)
	jrn := journal.New(journal.DefaultCapacity)
	sys.AttachJournal(jrn)
	aud := sys.EnableAudit(0)
	sh := &Shard{
		id:        id,
		det:       deterministic,
		Sys:       sys,
		Reg:       reg,
		Jrn:       jrn,
		Aud:       aud,
		ingress:   make(chan task, 4*perTenant),
		side:      make(chan sideTask, 8),
		sems:      make(map[uint32]chan struct{}),
		perTenant: perTenant,
		gDepth:    serverReg.Gauge(fmt.Sprintf("server.shard%d.queue_depth", id)),
		cServed:   serverReg.Counter(fmt.Sprintf("server.shard%d.served_total", id)),
		scope:     scope,
		sampler: telemetry.NewTailSampler(traceKeepEvery,
			reg.Counter("trace.kept_total"), reg.Counter("trace.dropped_total")),
		hQWait:         make(map[uint32]*telemetry.Histogram),
		hSvc:           make(map[uint32]*telemetry.Histogram),
		stop:           make(chan struct{}),
		stopped:        make(chan struct{}),
		chipSeq:        so.ChipSeq,
		logOn:          so.Log,
		ckptEvery:      so.CheckpointEvery,
		replaySessions: make(map[string]*Session),
	}
	sh.readPool.New = func() any { return sh.Sys.NewSnapshotReader() }
	sh.deltaPool.New = func() any { return new(memctrl.ReadDelta) }
	if !so.Detached {
		sh.Start()
	}
	return sh
}

// Start launches the worker of a detached shard. Idempotent.
func (sh *Shard) Start() {
	if sh.started.CompareAndSwap(false, true) {
		go sh.run()
	}
}

// ID returns the shard index.
func (sh *Shard) ID() int { return sh.id }

// Snapshot captures the shard's deterministic telemetry state. For
// reproducible bytes, call it when the shard is idle (after a drained
// schedule).
func (sh *Shard) Snapshot() *telemetry.Snapshot { return sh.Reg.Snapshot() }

func (sh *Shard) sem(tenant uint32) chan struct{} {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	s, ok := sh.sems[tenant]
	if !ok {
		s = make(chan struct{}, sh.perTenant)
		sh.sems[tenant] = s
	}
	return s
}

// Do submits fn for execution on the shard's worker and waits for its
// result. tenant selects the fairness queue; seq is the deterministic-mode
// schedule position (ignored in fair mode). If ctx expires while queued
// behind backpressure, Do returns ErrBusy; after admission the task always
// runs to completion (a simulated syscall cannot be cancelled midway), but
// Do stops waiting when ctx expires.
func (sh *Shard) Do(ctx context.Context, tenant uint32, seq uint64, fn func() (any, error)) (any, error) {
	return sh.submit(ctx, time.Time{}, task{seq: seq, tenant: tenant, name: "task", fn: fn})
}

// submit is Do for a task built by the caller, which may also carry a
// trace context — spans recorded anywhere below the shard's system while it
// runs are linked into that trace, kept or dropped by the tail sampler at
// completion — and the admission-log record to append after execution.
//
// deadline (zero: none) bounds the call like an expiring ctx does, without
// a derived context per request: one pooled timer, armed only once a step
// actually has to wait. ctx stays the caller's own (a disconnected client).
func (sh *Shard) submit(ctx context.Context, deadline time.Time, t task) (any, error) {
	dl := deadlineTimer{at: deadline}
	defer dl.stop()

	if !sh.det {
		// Fair mode: per-tenant admission slots. Deterministic mode skips
		// this — a slot limit could park the next-in-schedule request
		// behind later ones and deadlock the reorder buffer; the schedule
		// itself bounds in-flight work there (synchronous clients).
		sem := sh.sem(t.tenant)
		if !sendBy(ctx, &dl, sem, struct{}{}) {
			return nil, &BusyError{Tenant: t.tenant, Depth: sh.depth.Load()}
		}
		t.release = func() { <-sem }
	}
	sh.mu.Lock()
	if sh.draining {
		sh.mu.Unlock()
		if t.release != nil {
			t.release()
		}
		return nil, ErrDraining
	}
	sh.inflight.Add(1)
	sh.mu.Unlock()
	sh.gDepth.Set(uint64(sh.depth.Add(1)))

	t.resp = make(chan taskResult, 1)
	if !sendBy(ctx, &dl, sh.ingress, t) {
		sh.taskDone(t)
		return nil, &BusyError{Tenant: t.tenant, Depth: sh.depth.Load()}
	}
	// Admitted: the task runs at its turn whatever happens here, and the
	// worker releases its resources. A caller that gives up just stops
	// waiting.
	select {
	case r := <-t.resp:
		return r.v, r.err
	case <-ctx.Done():
		return nil, ctx.Err()
	case <-dl.expired():
		return nil, context.DeadlineExceeded
	}
}

// sendBy sends v on ch, giving up (false) when ctx is done or dl expires. A
// send that does not have to wait arms no timer.
func sendBy[T any](ctx context.Context, dl *deadlineTimer, ch chan<- T, v T) bool {
	select {
	case ch <- v:
		return true
	default:
	}
	select {
	case ch <- v:
		return true
	case <-ctx.Done():
	case <-dl.expired():
	}
	return false
}

// deadlineTimer is submit's deadline as a channel: the timer behind it
// comes from a pool and is armed by the first select that has to wait, so a
// request whose admission never blocks touches no runtime timer before its
// wait for the worker.
type deadlineTimer struct {
	at time.Time // zero: no deadline, expired() never fires
	tm *time.Timer
}

// timerPool holds stopped timers with drained channels (go.mod is go 1.22:
// Reset on anything else may leave a stale tick behind).
var timerPool sync.Pool

func (d *deadlineTimer) expired() <-chan time.Time {
	if d.tm == nil {
		if d.at.IsZero() {
			return nil
		}
		if tm, ok := timerPool.Get().(*time.Timer); ok {
			tm.Reset(time.Until(d.at))
			d.tm = tm
		} else {
			d.tm = time.NewTimer(time.Until(d.at))
		}
	}
	return d.tm.C
}

func (d *deadlineTimer) stop() {
	if d.tm == nil {
		return
	}
	if !d.tm.Stop() {
		select {
		case <-d.tm.C:
		default:
		}
	}
	timerPool.Put(d.tm)
}

// DoSide runs fn on the shard's worker goroutine between admitted tasks
// and waits for it. It serializes observability reads (the audit log's
// device window, recovery checks) with simulated work without consuming a
// deterministic-schedule slot or a fairness turn. Under sustained load the
// worker services side tasks between servings; ctx bounds the wait.
func (sh *Shard) DoSide(ctx context.Context, fn func()) error {
	t := sideTask{fn: fn, done: make(chan struct{})}
	select {
	case sh.side <- t:
	case <-sh.stopped:
		return ErrDraining
	case <-ctx.Done():
		return ctx.Err()
	}
	select {
	case <-t.done:
		return nil
	case <-sh.stopped:
		return ErrDraining
	case <-ctx.Done():
		return ctx.Err()
	}
}

func (sh *Shard) execSide(t sideTask) {
	t.fn()
	close(t.done)
}

// taskDone returns the resources of an admitted task.
func (sh *Shard) taskDone(t task) {
	if t.release != nil {
		t.release()
	}
	d := sh.depth.Add(-1)
	if d < 0 {
		d = 0
	}
	sh.gDepth.Set(uint64(d))
	sh.inflight.Done()
}

func (sh *Shard) exec(t task) {
	if sh.retired != nil {
		// The shard migrated away after this task was admitted: answer with
		// the routing error so the client retries at the new owner. The task
		// never executed, so the retry cannot duplicate work.
		t.resp <- taskResult{err: sh.retired}
		sh.taskDone(t)
		return
	}
	v, err := sh.serve(t)
	sh.maybeCheckpoint()
	t.resp <- taskResult{v: v, err: err}
	sh.cServed.Inc()
	sh.taskDone(t)
}

// tenantHist returns (caching) a per-tenant histogram handle. Worker-only.
func tenantHist(cache map[uint32]*telemetry.Histogram, reg *telemetry.Registry, tenant uint32, metric string) *telemetry.Histogram {
	h, ok := cache[tenant]
	if !ok {
		h = reg.Histogram(fmt.Sprintf("server.tenant.g%d.%s", tenant, metric))
		cache[tenant] = h
	}
	return h
}

// serve runs one task — admitted live, or rebuilt from an admission-log
// record by applyRecord — separating queue wait from service time, recording
// the request's trace and logging the task's record. Everything observed
// here derives from the shard's simulated clock, so the per-shard registry
// stays a pure function of the schedule; nothing else samples that clock or
// drives the trace scope on a request's behalf, which is what makes a
// replayed registry equal the source's.
func (sh *Shard) serve(t task) (any, error) {
	start := uint64(sh.Sys.M.MaxCoreTime())
	rootStart := start
	var wait uint64
	if t.enq != 0 && t.enq < start {
		wait = start - t.enq
		rootStart = t.enq
	}
	tenantHist(sh.hQWait, sh.Reg, t.tenant, "queue_wait_cycles").Observe(wait)
	traced := t.trace.Sampled && t.trace.TraceID != 0
	if traced {
		sh.scope.Begin(t.trace.TraceID, t.trace.Parent)
		sh.scope.Enter()
		// The queue-wait phase precedes service; emit it as the root's
		// first child so the waterfall separates waiting from doing.
		sh.Reg.Span("request", "queue_wait", rootStart, start, 0)
	}
	v, err := t.fn()
	end := uint64(sh.Sys.M.MaxCoreTime())
	tenantHist(sh.hSvc, sh.Reg, t.tenant, "service_cycles").Observe(end - start)
	if traced {
		sh.scope.Exit("request", t.name, rootStart, end, 0)
		sh.scope.End(sh.sampler.Keep(t.trace.TraceID, end-rootStart, err != nil))
	}
	if t.rec != nil && sh.logOn {
		sh.appendRecord(*t.rec)
		sh.sinceCkpt++
	}
	return v, err
}

func (sh *Shard) run() {
	defer close(sh.stopped)
	if sh.det {
		sh.runDeterministic()
		return
	}
	sh.runFair()
}

// runDeterministic admits strictly in per-shard sequence order: arrivals
// park in a reorder buffer until their turn. The buffer is unbounded, but
// synchronous clients keep it at most one entry per client.
func (sh *Shard) runDeterministic() {
	pending := make(map[uint64]task)
	for {
		if sh.retired != nil {
			// A retired shard answers everything immediately: sequence gaps
			// no longer matter because nothing executes.
			for s, t := range pending {
				delete(pending, s)
				sh.exec(t)
			}
		}
		if t, ok := pending[sh.detNext]; ok {
			delete(pending, sh.detNext)
			sh.detNext++
			sh.exec(t)
			continue
		}
		select {
		case t := <-sh.ingress:
			pending[t.seq] = t
		case st := <-sh.side:
			sh.execSide(st)
		case <-sh.stop:
			return
		}
	}
}

// runFair serves tasks per tenant in round-robin over the tenants with
// pending work, absorbing the ingress channel between servings so a burst
// from one tenant queues behind its own earlier requests, not everyone
// else's.
//
// Mutations run under the shard's writer lock with the seqlock version odd,
// so concurrent snapshot readers either see a fully quiescent machine or
// fall back to admission here. Admitted tasks are group-committed: up to
// groupCommitBatch servings share one lock acquisition and one version
// bump, amortizing writer-side synchronization under load while keeping
// reader stalls bounded to a batch.
func (sh *Shard) runFair() {
	queues := make(map[uint32][]task)
	var order []uint32 // tenants in first-seen order
	pending := 0
	rr := 0
	absorb := func(t task) {
		// Stamp the queue-wait start on the worker, from the shard clock:
		// wait is measured from absorption to service, in simulated cycles.
		t.enq = uint64(sh.Sys.M.MaxCoreTime())
		if _, ok := queues[t.tenant]; !ok {
			order = append(order, t.tenant)
		}
		queues[t.tenant] = append(queues[t.tenant], t)
		pending++
	}
	for {
		// Serve any parked observability work, then absorb everything
		// already waiting, without blocking.
		for {
			select {
			case st := <-sh.side:
				sh.enterMut()
				sh.execSide(st)
				sh.exitMut()
				continue
			case t := <-sh.ingress:
				absorb(t)
				continue
			default:
			}
			break
		}
		if pending == 0 {
			select {
			case t := <-sh.ingress:
				absorb(t)
			case st := <-sh.side:
				sh.enterMut()
				sh.execSide(st)
				sh.exitMut()
			case <-sh.stop:
				return
			}
			continue
		}
		sh.enterMut()
		for served := 0; served < groupCommitBatch && pending > 0; served++ {
			for i := 0; i < len(order); i++ {
				ten := order[(rr+i)%len(order)]
				q := queues[ten]
				if len(q) == 0 {
					continue
				}
				queues[ten] = q[1:]
				pending--
				rr = (rr + i + 1) % len(order)
				sh.exec(q[0])
				break
			}
		}
		sh.exitMut()
	}
}

// Close drains the shard: admission stops (new Do calls get ErrDraining),
// every already-admitted task runs to completion and is answered, then the
// worker exits. Safe to call more than once. In deterministic mode the
// caller must have completed the schedule — a missing sequence number
// would leave later tasks unserved, and Close waits for them.
func (sh *Shard) Close() {
	sh.mu.Lock()
	already := sh.draining
	sh.draining = true
	sh.mu.Unlock()
	if already {
		<-sh.stopped
		return
	}
	sh.inflight.Wait()
	close(sh.stop)
	<-sh.stopped
}
