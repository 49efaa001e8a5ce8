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
// Every op runs on its caller's goroutine, in a bracket of its own. A caller
// that finds the machine free takes it; one that finds it taken waits for a
// hand-off. The caller closing a bracket passes the machine, still locked,
// straight to the next waiter: side work (DoSide) first, in the order it was
// sent, then the admitted ops in fair order — per-tenant FIFO queues served
// round-robin, so one tenant flooding the shard cannot starve its
// neighbours, with bounded per-tenant depth for backpressure (ErrBusy once
// the tenant's slots stay full for the caller's whole context window).
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
	// ErrDraining reports a shard that no longer admits (graceful
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

// task is one unit of admitted work: a closure executed in a mutation
// bracket on its caller's goroutine.
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
	// turn, on a task that waits for the machine, receives its enq when the
	// machine is handed to it.
	turn chan uint64
	// trace is the request's wire trace context (zero: untraced).
	trace fsproto.TraceContext
	// enq is the shard clock the task arrived at, the start of its queue
	// wait, set by stamp (a task that finds the machine free, the clock at its
	// start; replay sets it from the logged wait).
	enq  uint64
	sess *Session
	body []byte
}

// tenantState is everything a shard keeps per tenant, one record created on
// first sight (Shard.tenant) and kept for the shard's life. slots bounds the
// tenant's admitted-but-unserved tasks: submit sends before admission,
// taskDone receives. The rest is touched inside mutation brackets only (the
// FIFO and the ring under sh.mu as well).
type tenantState struct {
	slots chan struct{}
	q     []task // q[head:]: waiting tasks in arrival order
	head  int
	next  *tenantState // fairQueue's ring of tenants with pending work
	// Resolved at first service: an unserved tenant leaves no metric behind.
	hQWait, hSvc *telemetry.Histogram
}

// Shard is one simulated machine plus its machine lock.
type Shard struct {
	id int

	// Sys is the shard's booted system. Only a mutation bracket may call
	// into it, one bracket at a time; everyone else goes through Do.
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
	// device window may only be read in a bracket; use DoSide.
	Aud *audit.Log

	mu        sync.Mutex
	draining  atomic.Bool // set under mu; read without it once a call holds its slot
	tenants   map[uint32]*tenantState
	perTenant int
	// The machine lock's hand-off, under mu. owned: a bracket is open, or
	// the machine is on its way to the next one. arrivals: tasks that found
	// it owned since a bracket last closed, their wait not yet stamped; q:
	// the stamped ones, in fair order; side: side work waiting, served first.
	// held: the Hold keeping the shard (hold.go), written in brackets. down:
	// Close has taken the machine for good.
	owned    bool
	arrivals []task
	q        fairQueue
	side     []chan uint64
	held     *Hold
	down     bool

	inflight sync.WaitGroup
	depth    atomic.Int64
	gDepth   *telemetry.Gauge
	cServed  *telemetry.Counter

	// Concurrent read fast-path plane (fastread.go). rmu is the machine
	// lock: every mutation bracket holds it for writing, handed from one
	// bracket to the next without an unlock, and a snapshot reader TryRLocks
	// it. closed, set under the machine lock once the shard has retired or
	// closed, turns readers away: their side effects would reach no bracket,
	// nor the log of the shard's new owner. readPool recycles reader
	// contexts. reads, readTraces and pendingReads accumulate the side
	// effects, sampled traces and count of reads completed since the last
	// drain, in completion order: readers append under readMu while they
	// hold the read lock, and a bracket drains them under the machine lock
	// alone.
	rmu          sync.RWMutex
	closed       atomic.Bool
	readPool     sync.Pool
	readMu       sync.Mutex
	reads        memctrl.ReadDelta
	readTraces   []fsproto.ReadTrace
	pendingReads int

	// Request-trace plane (bracket-only, deterministic): scope buffers one
	// request's spans until the tail sampler's keep/drop decision.
	scope   *telemetry.TraceScope
	sampler *telemetry.TailSampler

	started atomic.Bool

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
	// Detached boots the shard with its machine taken: the caller replays an
	// admission log into it first, then calls Start (no op runs before).
	Detached bool
}

// NewShardWith boots a system for shard id, started unless so.Detached.
// perTenant bounds the per-tenant queues (<= 0 uses
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
		tenants:   make(map[uint32]*tenantState),
		perTenant: perTenant,
		owned:     so.Detached,
		gDepth:    serverReg.Gauge(fmt.Sprintf("server.shard%d.queue_depth", id)),
		cServed:   serverReg.Counter(fmt.Sprintf("server.shard%d.served_total", id)),
		scope:     scope,
		sampler: telemetry.NewTailSampler(traceKeepEvery,
			reg.Counter("trace.kept_total"), reg.Counter("trace.dropped_total")),
		chipSeq:   so.ChipSeq,
		logOn:     so.Log,
		ckptEvery: so.CheckpointEvery,
		sess:      make(map[string]*sessState),
	}
	sh.readPool.New = func() any { return &readCtx{sr: sh.Sys.NewSnapshotReader()} }
	sh.started.Store(!so.Detached)
	return sh
}

// Start hands a detached shard's machine, taken since boot, to what waits
// for it. Idempotent.
func (sh *Shard) Start() {
	if sh.started.CompareAndSwap(false, true) {
		sh.enterMut()
		sh.handOff()
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

// Do runs fn on the shard's machine, on the caller's goroutine, and returns
// its result. tenant selects the fairness queue. If ctx expires while waiting
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
// DeadlineExceeded): the task still runs at its turn (await), and holds
// what it was given.
//
// An admitted task takes the machine at once, with no queue wait, if it is
// free: not owned (a detached shard's is, until Start) and not held. Else it
// joins the arrivals and runs when the machine is handed to it, so a caller
// never runs ahead of a waiting task.
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
	if !takeSlot(ctx, &dl, t.ts.slots) {
		sh.inflight.Done()
		return nil, &BusyError{Tenant: t.tenant, Depth: sh.depth.Load()}
	}
	if sh.draining.Load() {
		<-t.ts.slots
		sh.inflight.Done()
		return nil, ErrDraining
	}
	sh.gDepth.Set(uint64(sh.depth.Add(1)))

	sh.mu.Lock()
	if !sh.owned && sh.held == nil {
		sh.owned = true
		sh.mu.Unlock()
		sh.enterMut()
		t.enq = uint64(sh.Sys.M.MaxCoreTime())
		v, err := sh.exec(t)
		sh.handOff()
		return v, err
	}
	return sh.queue(ctx, &dl, t)
}

// queue adds t to the arrivals, under sh.mu, which it releases, and runs t
// at its turn.
func (sh *Shard) queue(ctx context.Context, dl *deadlineTimer, t task) (any, error) {
	t.turn = make(chan uint64, 1)
	sh.arrivals = append(sh.arrivals, t)
	sh.mu.Unlock()
	var v any
	var err error // written by a late turn's goroutine once queue returned: not results
	if werr := await(ctx, dl, t.turn, func(enq uint64) {
		t.enq = enq
		v, err = sh.exec(t)
		sh.handOff()
	}); werr != nil {
		return nil, werr
	}
	return v, err
}

// await waits for the machine to be handed over on turn, then calls run,
// which closes the bracket. When ctx is done or dl expires first, await
// returns that error at once and leaves a goroutine to take the turn, so
// what waited always runs, and in its order. A turn closed unsent (the
// shard closed) runs nothing: ErrDraining.
func await(ctx context.Context, dl *deadlineTimer, turn chan uint64, run func(enq uint64)) error {
	var err error
	select {
	case enq, ok := <-turn:
		if !ok {
			return ErrDraining
		}
		run(enq)
		return nil
	case <-ctx.Done():
		err = ctx.Err()
	case <-dl.expired():
		err = context.DeadlineExceeded
	}
	go func() {
		if enq, ok := <-turn; ok {
			run(enq)
		}
	}()
	return err
}

// stamp moves the arrivals to the fair queue, stamped with the clock as the
// start of their queue wait: the clock they arrived at, since only a bracket
// moves it. Called in a bracket, under sh.mu.
func (sh *Shard) stamp() {
	if len(sh.arrivals) == 0 {
		return
	}
	now := uint64(sh.Sys.M.MaxCoreTime())
	for i, t := range sh.arrivals {
		sh.q.push(t, now)
		sh.arrivals[i] = task{} // its closure holds the request body
	}
	sh.arrivals = sh.arrivals[:0]
}

// handOff closes the caller's bracket: it stamps the arrivals, then hands
// the machine, still write-locked, to the next waiter: side work first, an
// op only while no Hold keeps the shard. With no one to take it the machine
// is free again, unlocked unless a hold keeps it.
//
// Handing the machine on readies the waiter into this goroutine's P. On one
// P the caller keeps running, so its answer goes out first; on more than one
// it yields, so the waiter's bracket starts at once on the warm P while the
// caller continues on another.
func (sh *Shard) handOff() {
	sh.mu.Lock()
	sh.stamp()
	var turn chan uint64
	var enq uint64
	if len(sh.side) > 0 {
		turn, sh.side = sh.side[0], sh.side[1:]
	} else if sh.held == nil {
		if t, ok := sh.q.pop(); ok {
			turn, enq = t.turn, t.enq
		}
	}
	if turn == nil {
		sh.owned = false
		if sh.held == nil {
			sh.rmu.Unlock()
		}
	}
	sh.mu.Unlock()
	if turn != nil {
		turn <- enq
		if runtime.GOMAXPROCS(0) > 1 {
			runtime.Gosched()
		}
	}
}

// takeSlot takes one of a tenant's admission slots, giving up (false) when
// ctx is done or dl expires. A take that does not have to wait arms no
// timer.
func takeSlot(ctx context.Context, dl *deadlineTimer, slots chan<- struct{}) bool {
	select {
	case slots <- struct{}{}:
		return true
	default:
	}
	select {
	case slots <- struct{}{}:
		return true
	case <-ctx.Done():
	case <-dl.expired():
	}
	return false
}

// deadlineTimer is submit's deadline as a channel: the timer behind it
// comes from a pool and is armed by the first select that has to wait, so a
// request whose admission never blocks touches no runtime timer before it
// waits for the machine.
type deadlineTimer struct {
	at time.Time // zero: no deadline, expired() never fires
	tm *time.Timer
}

// timerPool holds idle timers with drained channels (go.mod is go 1.22:
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

// DoSide runs fn in a bracket of its own, on the caller's goroutine, and
// waits for it. It serializes observability reads (the audit log's device
// window, recovery checks) with simulated work without taking a fairness
// turn: it runs at once if the machine is free or a Hold keeps it idle, and
// else as soon as the bracket open now closes, ahead of every admitted task
// still waiting. Side work runs in the order it was sent. ctx bounds the
// wait; side work that stops waiting still runs at its turn.
func (sh *Shard) DoSide(ctx context.Context, fn func()) error {
	return sh.sideTurn(ctx, func() {
		fn()
		sh.handOff()
	})
}

// sideTurn takes the machine for run, as side work: at once if no bracket
// owns it (under a hold, whose write lock it keeps), else at its turn among
// the side work waiting. run closes the bracket, or keeps the machine.
func (sh *Shard) sideTurn(ctx context.Context, run func()) error {
	sh.mu.Lock()
	if sh.down {
		sh.mu.Unlock()
		return ErrDraining
	}
	if !sh.owned {
		sh.owned = true
		held := sh.held != nil
		if held {
			sh.stamp() // what arrived while the hold kept the machine idle
		}
		sh.mu.Unlock()
		if !held {
			sh.enterMut()
		}
		run()
		return nil
	}
	turn := make(chan uint64, 1)
	sh.side = append(sh.side, turn)
	sh.mu.Unlock()
	return await(ctx, &deadlineTimer{}, turn, func(uint64) { run() })
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

// exec runs an admitted task inside its caller's mutation bracket and
// returns its resources.
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

// Close drains the shard: admission stops (new Do calls get ErrDraining),
// every already-admitted task runs to completion and is answered, then Close
// takes the machine, as side work, for good: the side work still waiting
// behind it, and any sent later, get ErrDraining. Safe to call more than
// once.
func (sh *Shard) Close() {
	sh.mu.Lock()
	sh.draining.Store(true)
	sh.mu.Unlock()
	sh.inflight.Wait()
	_ = sh.sideTurn(context.Background(), func() {
		sh.closed.Store(true)
		sh.mu.Lock()
		sh.down = true
		for _, turn := range sh.side {
			close(turn)
		}
		sh.side = nil
		sh.mu.Unlock()
	})
}
