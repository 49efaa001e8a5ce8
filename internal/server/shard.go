// Package server is the multi-tenant encrypted file service over the
// FsEncr machine model: fsencrd's request-processing layer.
//
// The service multiplexes many concurrent network clients onto a pool of
// sharded simulated machines. Each Shard owns one kernel.System — machine,
// DAX filesystem, keyring, OTT — and one machine lock: one mutation bracket
// at a time touches that system, so the simulation stays exactly as
// deterministic as it is in-process while independent tenants run in
// parallel on different shards (tenant -> shard by GroupID hash).
//
// An admitted op that finds its shard idle runs in a bracket of its own on
// the caller's goroutine. What has to queue, one worker loop (Shard.run)
// serves from one admission queue: per-tenant FIFO queues drained
// round-robin, so one tenant flooding the shard cannot starve its
// neighbours, with bounded per-tenant depth for backpressure (ErrBusy once
// the queue is full and the caller's context expires). Everything reaches
// the worker through one ingress channel, side work (DoSide) as a task the
// worker runs as soon as it absorbs it.
//
// A logged shard's simulated state — clocks, caches, telemetry, the
// security journal — is a pure function of its admission log, which records
// each op's measured queue wait with it: replaying the log on an empty node
// reproduces the shard byte for byte. That replay is the system's
// reproducibility oracle.
package server

import (
	"context"
	"errors"
	"fmt"
	"runtime"
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

// task is one unit of admitted work: a closure executed in a mutation
// bracket, on the caller's goroutine or on the shard's worker.
type task struct {
	tenant uint32
	// kind is the op, which names the request's root span ("write",
	// "kv_get", ...) and its log record; sess, nil on a task that is no op
	// (Do, its span "task"), is the op's session. framed and body are the
	// request as decode takes it, which a logged shard records.
	kind   fsproto.Kind
	framed bool
	ts     *tenantState // resolved by submit (by serve for a replayed task)
	fn     func() (any, error)
	resp   chan taskResult // buffered(1): the worker never blocks on it; nil inline
	// trace is the request's wire trace context (zero: untraced).
	trace fsproto.TraceContext
	// enq is the shard clock when the worker absorbed the task: the start of
	// its queue wait (inline, the clock at its start; replay sets it from
	// the logged wait).
	enq  uint64
	sess *Session
	body []byte
	// side, when set, makes the task side work (DoSide): run at absorption,
	// answered with an empty result once the worker's bracket closes, and
	// outside admission (no tenant slot, no depth, no log record).
	side func()
}

// tenantState is everything a shard keeps per tenant, one record created on
// first sight (Shard.tenant) and kept for the shard's life. slots bounds the
// tenant's admitted-but-unserved tasks: submit sends before admission,
// taskDone receives. The rest is touched inside mutation brackets only.
type tenantState struct {
	slots chan struct{}
	q     []task // q[head:]: absorbed tasks in arrival order
	head  int
	next  *tenantState // fairQueue's ring of tenants with pending work
	// Resolved at first service: an unserved tenant leaves no metric behind.
	hQWait, hSvc *telemetry.Histogram
}

// Shard is one simulated machine plus its machine lock and worker.
type Shard struct {
	id int

	// Sys is the shard's booted system. Only a mutation bracket may call
	// into it, one bracket at a time (the worker's, or an inline op's);
	// everyone else goes through Do.
	Sys *kernel.System
	// Reg is the shard's deterministic telemetry registry: every value in
	// it derives from simulated cycles or the admission log, so a replay of
	// the shard's log reproduces its snapshot byte for byte.
	Reg *telemetry.Registry
	// Jrn is the shard's security-event journal (kernel/machine emissions
	// plus the server's cross-tenant denial and auth-failure events, all
	// emitted inside mutation brackets, in admission order).
	Jrn *journal.Journal
	// Aud is the shard's tamper-evident access-audit log, appended to by
	// the shard's memory controller as tenant page traffic flows. Its
	// device window may only be read on the worker; use DoSide.
	Aud *audit.Log

	// ingress carries admitted tasks and side work (observability reads,
	// which never take a fairness turn, and the steps of a Hold) to the worker.
	ingress chan task

	mu        sync.Mutex
	draining  atomic.Bool // set under mu; read without it once a call holds its slot
	tenants   map[uint32]*tenantState
	perTenant int

	inflight sync.WaitGroup
	depth    atomic.Int64
	// queued counts admitted tasks sent to the ingress and not yet served
	// (lowered inside the bracket that served one).
	queued  atomic.Int64
	gDepth  *telemetry.Gauge
	cServed *telemetry.Counter

	// Concurrent read fast-path plane (fastread.go). rmu is the machine
	// lock: every mutation bracket holds it for writing, the worker's and an
	// inline op's alike, and a snapshot reader TryRLocks it; deltas is the
	// lock-free stack of deferred read side effects the next bracket folds
	// into the controller — pendingDeltas counts them and
	// drainAsked is up while a reader's request for a drain is outstanding
	// (askDrain) — and the pools recycle per-goroutine reader contexts and
	// delta buffers. drained and drainedTraces are the worker's merge of one
	// drain. closed, set under the machine lock once the shard has retired or
	// stopped, turns readers away: their deltas would reach no worker, nor
	// the log of the shard's new owner.
	rmu           sync.RWMutex
	deltas        atomic.Pointer[deltaNode]
	pendingDeltas atomic.Int64
	drainAsked    atomic.Bool
	closed        atomic.Bool
	readPool      sync.Pool
	deltaPool     sync.Pool
	drained       memctrl.ReadDelta
	drainedTraces []fsproto.ReadTrace

	// Request-trace plane (bracket-only, deterministic): scope buffers one
	// request's spans until the tail sampler's keep/drop decision.
	scope   *telemetry.TraceScope
	sampler *telemetry.TailSampler

	stop    chan struct{}
	stopped chan struct{}
	started atomic.Bool
	held    *Hold // the owner while the shard is held (hold.go); worker-only

	// Cluster plane. chipSeq is the controller key-derivation sequence the
	// shard booted with (0: per-process auto). logOn enables the admission
	// log; log and the checkpoint cursor below are bracket-only (readers go
	// through DoSide or a Hold). retired, once set, is answered to every task
	// instead of executing it: the shard has migrated away.
	chipSeq   uint64
	logOn     bool
	log       logStore
	ckptEvery int
	sinceCkpt int
	retired   error
	// sess maps a token to its state here. Only a mutation bracket writes
	// it, under sessMu, and reads it without; Service.session reads it under
	// sessMu.
	sessMu sync.RWMutex
	sess   map[string]*sessState
}

// traceKeepEvery is the tail sampler's probabilistic keep rate for traces
// that are neither errors nor slow-decile: 1 in traceKeepEvery.
const traceKeepEvery = 8

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
	// replays an admission log into it first, then calls Start (no op runs
	// inline before).
	Detached bool
}

// NewShardWith boots a system for shard id and starts its worker (unless
// so.Detached). perTenant bounds the per-tenant queues (<= 0 uses
// DefaultPerTenantQueue). serverReg is the host-side (non-deterministic)
// registry receiving the shard's queue-depth gauge; nil is allowed.
func NewShardWith(id int, cfg config.Config, mode memctrl.Mode, access kernel.AccessMode, perTenant int, serverReg *telemetry.Registry, so ShardOptions) *Shard {
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
		Sys:       sys,
		Reg:       reg,
		Jrn:       jrn,
		Aud:       aud,
		ingress:   make(chan task, 4*perTenant),
		tenants:   make(map[uint32]*tenantState),
		perTenant: perTenant,
		gDepth:    serverReg.Gauge(fmt.Sprintf("server.shard%d.queue_depth", id)),
		cServed:   serverReg.Counter(fmt.Sprintf("server.shard%d.served_total", id)),
		scope:     scope,
		sampler: telemetry.NewTailSampler(traceKeepEvery,
			reg.Counter("trace.kept_total"), reg.Counter("trace.dropped_total")),
		stop:      make(chan struct{}),
		stopped:   make(chan struct{}),
		chipSeq:   so.ChipSeq,
		logOn:     so.Log,
		ckptEvery: so.CheckpointEvery,
		sess:      make(map[string]*sessState),
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
// reproducible bytes, call it when the shard is idle or held.
func (sh *Shard) Snapshot() *telemetry.Snapshot { return sh.Reg.Snapshot() }

// tenant returns (creating on first sight) the shard's record of a tenant.
// sh.mu must be held.
func (sh *Shard) tenant(id uint32) *tenantState {
	ts, ok := sh.tenants[id]
	if !ok {
		ts = &tenantState{slots: make(chan struct{}, sh.perTenant)}
		sh.tenants[id] = ts
	}
	return ts
}

// Do submits fn for execution on the shard's machine and waits for its
// result: on the caller's goroutine if the shard is idle, else on the
// worker. tenant selects the fairness queue. If ctx expires while queued
// behind backpressure, Do returns ErrBusy; after admission the task always
// runs to completion (a simulated syscall cannot be cancelled midway), but
// Do stops waiting when ctx expires.
func (sh *Shard) Do(ctx context.Context, tenant uint32, fn func() (any, error)) (any, error) {
	return sh.submit(ctx, time.Time{}, task{tenant: tenant, fn: fn})
}

// submit is Do for a task built by the caller, which may also carry a
// trace context — spans recorded anywhere below the shard's system while it
// runs are linked into that trace, kept or dropped by the tail sampler at
// completion — and the op a logged shard records after execution.
//
// deadline (zero: none) bounds the call like an expiring ctx does, without
// a derived context per request: one pooled timer, armed only once a step
// actually has to wait. ctx stays the caller's own (a disconnected client).
// Only an admitted task's wait ends in a context error (ctx.Err() or
// DeadlineExceeded): the task still runs, and holds what it was given.
//
// An admitted task runs inline, in a bracket of its own on this goroutine
// with no queue wait, if the worker is started (a detached shard runs
// nothing before Start), the machine lock is free (a held shard keeps the
// worker's bracket open) and nothing sent to the worker is unserved — read
// again under the lock, so a caller never runs ahead of a queued task.
func (sh *Shard) submit(ctx context.Context, deadline time.Time, t task) (any, error) {
	dl := deadlineTimer{at: deadline}
	defer dl.stop()

	// The call counts in inflight from here, so Close waits for it; one that
	// gets its tenant slot after the drain began is refused then.
	sh.mu.Lock()
	if sh.draining.Load() {
		sh.mu.Unlock()
		return nil, ErrDraining
	}
	t.ts = sh.tenant(t.tenant)
	sh.inflight.Add(1)
	sh.mu.Unlock()
	if !sendBy(ctx, &dl, t.ts.slots, struct{}{}) {
		sh.inflight.Done()
		return nil, &BusyError{Tenant: t.tenant, Depth: sh.depth.Load()}
	}
	if sh.draining.Load() {
		<-t.ts.slots
		sh.inflight.Done()
		return nil, ErrDraining
	}
	sh.gDepth.Set(uint64(sh.depth.Add(1)))

	if sh.started.Load() && sh.queued.Load() == 0 && sh.rmu.TryLock() {
		if sh.queued.Load() == 0 {
			sh.drainDeltas() // as enterMut does
			t.enq = uint64(sh.Sys.M.MaxCoreTime())
			v, err := sh.exec(t)
			sh.exitMut()
			return v, err
		}
		sh.rmu.Unlock()
	}
	sh.queued.Add(1)
	t.resp = make(chan taskResult, 1)
	if !sendBy(ctx, &dl, sh.ingress, t) {
		sh.queued.Add(-1)
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
// device window, recovery checks) with simulated work without taking a
// fairness turn: the worker runs it inside its bracket as soon as it absorbs
// it from the ingress, ahead of every admitted task still queued, held shard
// or not, and answers it once that bracket has closed (under a hold, which
// keeps it open, at once). Side work runs in the order it was sent. ctx
// bounds the wait.
func (sh *Shard) DoSide(ctx context.Context, fn func()) error {
	t := task{side: fn, resp: make(chan taskResult, 1)}
	select {
	case sh.ingress <- t:
	case <-sh.stopped:
		return ErrDraining
	case <-ctx.Done():
		return ctx.Err()
	}
	select {
	case <-t.resp:
		return nil
	case <-sh.stopped:
		return ErrDraining
	case <-ctx.Done():
		return ctx.Err()
	}
}

// taskDone returns the resources of an admitted task.
func (sh *Shard) taskDone(t task) {
	<-t.ts.slots
	d := sh.depth.Add(-1)
	if d < 0 {
		d = 0
	}
	sh.gDepth.Set(uint64(d))
	sh.inflight.Done()
}

// exec runs an admitted task inside the current mutation bracket, the
// worker's or its caller's, and returns its resources.
func (sh *Shard) exec(t task) (v any, err error) {
	// A retired shard migrated away after this task was admitted: it answers
	// with the routing error so the client retries at the new owner. The task
	// never executed, so the retry cannot duplicate work.
	if err = sh.retired; err == nil {
		v, err = sh.serve(t)
		sh.maybeCheckpoint()
		sh.cServed.Inc()
	}
	sh.taskDone(t)
	return v, err
}

// serve runs one task — admitted live, or rebuilt from an admission-log
// record by applyRecord — separating queue wait from service time, recording
// the request's trace and logging the op with its wait. Everything observed
// here derives from the shard's simulated clock, and the one value that does
// not follow from the log before it, the wait, is logged, so the per-shard
// registry stays a pure function of the log; nothing else samples that clock
// or drives the trace scope on a request's behalf, which is what makes a
// replayed registry equal the source's.
func (sh *Shard) serve(t task) (any, error) {
	ts := t.ts
	if ts == nil {
		sh.mu.Lock()
		ts = sh.tenant(t.tenant)
		sh.mu.Unlock()
	}
	if ts.hQWait == nil {
		ts.hQWait = sh.Reg.Histogram(fmt.Sprintf("server.tenant.g%d.queue_wait_cycles", t.tenant))
		ts.hSvc = sh.Reg.Histogram(fmt.Sprintf("server.tenant.g%d.service_cycles", t.tenant))
	}
	start := uint64(sh.Sys.M.MaxCoreTime())
	var wait uint64
	if t.enq < start {
		wait = start - t.enq
	}
	rootStart := start - wait
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
		// The verdict judges service time, not the root's length.
		sh.scope.End(sh.sampler.Keep(t.trace.TraceID, end-start, err != nil))
	}
	if t.sess != nil && sh.logOn {
		sh.logOp(&t, wait)
		sh.sinceCkpt++
	}
	return v, err
}

// fairQueue is the admission queue (now is the shard clock at absorption). It
// serves the tenants with pending work round-robin, each tenant's
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

// run is the shard's worker, the loop that serves what has to queue. With
// nothing to serve (or the shard held) it waits for an arrival or stop. It
// takes the machine (enterMut, fastread.go) before it absorbs that arrival
// and everything pending — so side work that came in while an inline op held
// the machine runs before every queued task, and the queue clock is read
// inside a bracket — then pops and serves one task and closes the bracket.
// A Hold stretches the bracket: the side work that takes the shard leaves it
// open, the worker runs side work inside it but pops nothing, and the side
// work that releases the shard closes it.
//
// Answering a task readies its caller behind the worker on this P, so while
// admitted work waits the worker yields after the bracket (never inside it,
// where readers would meet the held writer lock) and the answered caller
// runs before the next task.
func (sh *Shard) run() {
	defer close(sh.stopped)
	var q fairQueue
	var answer []chan taskResult // side work run in the open bracket
	for {
		var t task
		got := false
		if sh.held != nil || q.tail == nil {
			select {
			case t = <-sh.ingress:
				got = true
			case <-sh.stop:
				if sh.held == nil {
					sh.enterMut()
					defer sh.exitMut()
				}
				sh.closed.Store(true)
				return
			}
		}
		if sh.held == nil {
			sh.enterMut()
		}
		if got {
			answer = sh.absorb(&q, t, answer)
		}
		for more := true; more; {
			select {
			case t := <-sh.ingress:
				answer = sh.absorb(&q, t, answer)
			default:
				more = false
			}
		}
		served := false
		if sh.held == nil {
			if t, ok := q.pop(); ok {
				v, err := sh.exec(t)
				sh.queued.Add(-1)
				t.resp <- taskResult{v: v, err: err}
				served = true
			}
			sh.exitMut()
		}
		for _, c := range answer {
			c <- taskResult{}
		}
		answer = answer[:0]
		if served && sh.depth.Load() > 0 {
			runtime.Gosched()
		}
	}
}

// absorb takes one arrival off the ingress inside the worker's bracket: side
// work runs, its answer joins those sent once the bracket closes, and an
// admitted task joins the queue.
func (sh *Shard) absorb(q *fairQueue, t task, answer []chan taskResult) []chan taskResult {
	if t.side != nil {
		t.side()
		return append(answer, t.resp)
	}
	q.push(t, uint64(sh.Sys.M.MaxCoreTime()))
	return answer
}

// Close drains the shard: admission stops (new Do calls get ErrDraining),
// every already-admitted task runs to completion and is answered, then the
// worker exits. Safe to call more than once.
func (sh *Shard) Close() {
	sh.mu.Lock()
	already := sh.draining.Swap(true)
	sh.mu.Unlock()
	if already {
		<-sh.stopped
		return
	}
	sh.inflight.Wait()
	close(sh.stop)
	<-sh.stopped
}
