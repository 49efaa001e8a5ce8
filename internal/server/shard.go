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
// One worker loop (Shard.run) serves one admission queue, in one of two orders:
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
	// ErrHeld reports a Hold refused because the shard is already held.
	ErrHeld = errors.New("server: shard already held")
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
	seq    uint64
	tenant uint32
	// kind is the op, which names the request's root span ("write",
	// "kv_get", ...) and its log record; sess, nil on a task that is no op
	// (Do, its span "task"), is the op's session. framed and body are the
	// request as decode takes it, which a logged shard records.
	kind   fsproto.Kind
	framed bool
	ts     *tenantState // resolved by submit (by serve for a replayed task)
	fn     func() (any, error)
	resp   chan taskResult // buffered(1): the worker never blocks on it
	// trace is the request's wire trace context (zero: untraced).
	trace fsproto.TraceContext
	// enq is the shard clock when the worker absorbed the task (fair queue
	// only): the start of the measurable queue wait. The deterministic queue
	// leaves it 0 — arrival interleaving is not schedule state there.
	enq  uint64
	sess *Session
	body []byte
}

// sideTask is out-of-band worker work; done is closed after fn ran.
type sideTask struct {
	fn   func()
	done chan struct{}
}

// tenantState is everything a shard keeps per tenant, one record created on
// first sight (Shard.tenant) and kept for the shard's life. Worker-only but
// for slots, which bounds the tenant's admitted-but-unserved tasks in fair
// mode: submit sends before admission, taskDone receives.
type tenantState struct {
	slots chan struct{}
	q     []task // q[head:]: absorbed tasks in arrival order
	head  int
	next  *tenantState // fairQueue's ring of tenants with pending work
	// Resolved at first service: an unserved tenant leaves no metric behind.
	hQWait, hSvc *telemetry.Histogram
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
	// side carries work that must run on the worker but outside both
	// admission disciplines: observability reads (a scrape never consumes a
	// deterministic-schedule slot or a fairness turn) and the steps of a Hold.
	side chan sideTask

	mu        sync.Mutex
	draining  bool
	tenants   map[uint32]*tenantState
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
	// request's spans until the tail sampler's keep/drop decision.
	scope   *telemetry.TraceScope
	sampler *telemetry.TailSampler

	stop    chan struct{}
	stopped chan struct{}
	started atomic.Bool
	held    *Hold // the owner while the shard is held (hold.go); worker-only

	// Cluster plane. chipSeq is the controller key-derivation sequence the
	// shard booted with (0: per-process auto). logOn enables the admission
	// log; log and the checkpoint/schedule cursors below are worker-only
	// (readers go through DoSide or a Hold). detNext is the next
	// deterministic schedule sequence — a field rather than a loop local so
	// a shard rehydrated by log replay continues the schedule exactly where
	// the source stopped. retired, once set, is answered to every task
	// instead of executing it: the shard has migrated away.
	chipSeq   uint64
	logOn     bool
	log       logStore
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
		tenants:   make(map[uint32]*tenantState),
		perTenant: perTenant,
		gDepth:    serverReg.Gauge(fmt.Sprintf("server.shard%d.queue_depth", id)),
		cServed:   serverReg.Counter(fmt.Sprintf("server.shard%d.served_total", id)),
		scope:     scope,
		sampler: telemetry.NewTailSampler(traceKeepEvery,
			reg.Counter("trace.kept_total"), reg.Counter("trace.dropped_total")),
		stop:           make(chan struct{}),
		stopped:        make(chan struct{}),
		chipSeq:        so.ChipSeq,
		logOn:          so.Log,
		log:            logStore{gen: logGens.Add(1)},
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

// tenant returns (creating on first sight) the shard's record of a tenant.
func (sh *Shard) tenant(id uint32) *tenantState {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	ts, ok := sh.tenants[id]
	if !ok {
		ts = &tenantState{slots: make(chan struct{}, sh.perTenant)}
		sh.tenants[id] = ts
	}
	return ts
}

// Do submits fn for execution on the shard's worker and waits for its
// result. tenant selects the fairness queue; seq is the deterministic-mode
// schedule position (ignored in fair mode). If ctx expires while queued
// behind backpressure, Do returns ErrBusy; after admission the task always
// runs to completion (a simulated syscall cannot be cancelled midway), but
// Do stops waiting when ctx expires.
func (sh *Shard) Do(ctx context.Context, tenant uint32, seq uint64, fn func() (any, error)) (any, error) {
	return sh.submit(ctx, time.Time{}, task{seq: seq, tenant: tenant, fn: fn})
}

// submit is Do for a task built by the caller, which may also carry a
// trace context — spans recorded anywhere below the shard's system while it
// runs are linked into that trace, kept or dropped by the tail sampler at
// completion — and the op a logged shard records after execution.
//
// deadline (zero: none) bounds the call like an expiring ctx does, without
// a derived context per request: one pooled timer, armed only once a step
// actually has to wait. ctx stays the caller's own (a disconnected client).
func (sh *Shard) submit(ctx context.Context, deadline time.Time, t task) (any, error) {
	dl := deadlineTimer{at: deadline}
	defer dl.stop()

	t.ts = sh.tenant(t.tenant)
	// Fair mode: per-tenant admission slots. Deterministic mode skips this —
	// a slot limit could park the next-in-schedule request behind later ones
	// and deadlock the reorder buffer; the schedule itself bounds in-flight
	// work there (synchronous clients).
	if !sh.det && !sendBy(ctx, &dl, t.ts.slots, struct{}{}) {
		return nil, &BusyError{Tenant: t.tenant, Depth: sh.depth.Load()}
	}
	sh.mu.Lock()
	if sh.draining {
		sh.mu.Unlock()
		if !sh.det {
			<-t.ts.slots
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
// worker services side tasks between servings (a held shard services nothing
// else); ctx bounds the wait.
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

// execSide runs one side task as a mutation batch of its own. A Hold
// stretches the bracket: the task that takes the shard leaves it open, side
// work under the hold runs inside it, the task that releases closes it.
func (sh *Shard) execSide(t sideTask) {
	if sh.held == nil {
		sh.enterMut()
	}
	t.fn()
	if sh.held == nil {
		sh.exitMut()
	}
	close(t.done)
}

// taskDone returns the resources of an admitted task.
func (sh *Shard) taskDone(t task) {
	if !sh.det {
		<-t.ts.slots
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

// serve runs one task — admitted live, or rebuilt from an admission-log
// record by applyRecord — separating queue wait from service time, recording
// the request's trace and logging the op. Everything observed
// here derives from the shard's simulated clock, so the per-shard registry
// stays a pure function of the schedule; nothing else samples that clock or
// drives the trace scope on a request's behalf, which is what makes a
// replayed registry equal the source's.
func (sh *Shard) serve(t task) (any, error) {
	ts := t.ts
	if ts == nil {
		ts = sh.tenant(t.tenant)
	}
	if ts.hQWait == nil {
		ts.hQWait = sh.Reg.Histogram(fmt.Sprintf("server.tenant.g%d.queue_wait_cycles", t.tenant))
		ts.hSvc = sh.Reg.Histogram(fmt.Sprintf("server.tenant.g%d.service_cycles", t.tenant))
	}
	start := uint64(sh.Sys.M.MaxCoreTime())
	rootStart := start
	var wait uint64
	if t.enq != 0 && t.enq < start {
		wait = start - t.enq
		rootStart = t.enq
	}
	ts.hQWait.Observe(wait)
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
	ts.hSvc.Observe(end - start)
	if traced {
		name := "task"
		if t.sess != nil {
			name = t.kind.String()
		}
		sh.scope.Exit("request", name, rootStart, end, 0)
		sh.scope.End(sh.sampler.Keep(t.trace.TraceID, end-rootStart, err != nil))
	}
	if t.sess != nil && sh.logOn {
		sh.logOp(&t)
		sh.sinceCkpt++
	}
	return v, err
}

// queue is an admission discipline: the order in which run serves what it
// absorbed (now is the shard clock at absorption).
type queue interface {
	push(t task, now uint64)
	pop() (task, bool)
}

// fairQueue serves the tenants with pending work round-robin, each tenant's
// own tasks in arrival order, so a burst from one tenant queues behind its
// own earlier requests, not everyone else's. The ring links exactly the
// tenants whose FIFO is non-empty: a pop costs the same however many tenants
// the shard has seen.
type fairQueue struct {
	tail *tenantState // tail.next is the tenant served next
}

func (q *fairQueue) push(t task, now uint64) {
	t.enq = now
	ts := t.ts
	ts.q = append(ts.q, t)
	if len(ts.q)-ts.head > 1 {
		return // already on the ring
	}
	if ts.next = ts; q.tail != nil { // a ring of one, unless there is one to join
		ts.next, q.tail.next = q.tail.next, ts
	}
	q.tail = ts
}

func (q *fairQueue) pop() (task, bool) {
	if q.tail == nil {
		return task{}, false
	}
	ts := q.tail.next
	t := ts.q[ts.head]
	ts.q[ts.head] = task{} // the served task's closure holds its request body
	if ts.head++; 2*ts.head >= len(ts.q) {
		// Reclaim the served prefix (amortised, at most one move per pop), so
		// a tenant that is never idle does not grow its FIFO.
		n := copy(ts.q, ts.q[ts.head:])
		clear(ts.q[n:])
		ts.q, ts.head = ts.q[:n], 0
	}
	if len(ts.q) > 0 {
		q.tail = ts // more pending: the tenant goes to the back
	} else if ts == q.tail {
		q.tail = nil
	} else {
		q.tail.next = ts.next
	}
	return t, true
}

// seqQueue admits strictly in per-shard sequence order: arrivals park in a
// reorder buffer until their turn (unbounded, but synchronous clients keep it
// at most one entry per client). A retired shard executes nothing, so gaps
// stop mattering and pop hands out whatever is parked.
type seqQueue struct {
	sh      *Shard // for detNext and retired
	pending map[uint64]task
}

func (q *seqQueue) push(t task, _ uint64) { q.pending[t.seq] = t }

func (q *seqQueue) pop() (task, bool) {
	seq := q.sh.detNext
	if _, ok := q.pending[seq]; ok {
		q.sh.detNext++
	} else if q.sh.retired != nil {
		for seq = range q.pending {
			break
		}
	}
	t, ok := q.pending[seq]
	delete(q.pending, seq)
	return t, ok
}

// run is the shard's worker, the only loop onto the simulated machine. It
// absorbs what has arrived without blocking — side tasks run at once, admitted
// tasks join the queue — then serves from the queue, or with nothing to serve
// waits for the next arrival or stop. A held shard keeps absorbing and keeps
// running side tasks (how the holder reaches the machine) but pops nothing.
//
// Mutations run inside enterMut/exitMut (fastread.go), so concurrent snapshot
// readers either see a quiescent machine or fall back to admission here.
// Admitted tasks are group-committed: up to groupCommitBatch servings share
// one bracket, amortizing writer-side synchronization under load while
// keeping reader stalls bounded to a batch.
func (sh *Shard) run() {
	defer close(sh.stopped)
	var q queue = &fairQueue{}
	if sh.det {
		q = &seqQueue{sh: sh, pending: make(map[uint64]task)}
	}
	for {
		for more := true; more; {
			select {
			case st := <-sh.side:
				sh.execSide(st)
			case t := <-sh.ingress:
				q.push(t, uint64(sh.Sys.M.MaxCoreTime()))
			default:
				more = false
			}
		}
		if sh.held == nil {
			if t, ok := q.pop(); ok {
				sh.enterMut()
				sh.exec(t)
				for n := 1; n < groupCommitBatch; n++ {
					if t, ok = q.pop(); !ok {
						break
					}
					sh.exec(t)
				}
				sh.exitMut()
				continue
			}
		}
		select {
		case st := <-sh.side:
			sh.execSide(st)
		case t := <-sh.ingress:
			q.push(t, uint64(sh.Sys.M.MaxCoreTime()))
		case <-sh.stop:
			return
		}
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
