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
// Every op runs on its caller's goroutine, in a bracket of its own, and the
// caller closing a bracket passes the machine, still locked, straight to the
// next waiter: side work (DoSide) first, then the admitted ops in fair order,
// per-tenant FIFOs served round-robin, each tenant bounded for backpressure
// (ErrBusy). The gate (gate.go) takes every such decision; the Shard carries
// them out.
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
	// trace is the request's wire trace context (zero: untraced).
	trace fsproto.TraceContext
	// enq is the start of the task's queue wait: its gate stamp, the clock
	// at its start if it found the machine free, or on replay the logged wait.
	enq  uint64
	sess *Session
	body []byte
}

// tenantState is everything a shard keeps per tenant, created on first sight
// (Shard.tenant). slots bounds the tenant's admitted-but-unserved tasks
// (submit sends, taskDone receives); lane, under sh.mu, is its FIFO in the
// gate's fair queue.
type tenantState struct {
	slots chan struct{}
	lane  lane[turn]
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

	// mu guards the gate, the machine lock's admission state, and tenants.
	mu        sync.Mutex
	gate      gate[turn]
	tenants   map[uint32]*tenantState
	perTenant int
	depth     atomic.Int64
	gDepth    *telemetry.Gauge
	cServed   *telemetry.Counter

	// Concurrent read fast-path plane (fastread.go). rmu is the machine
	// lock: a bracket holds it for writing, a snapshot reader TryRLocks it.
	// reads, readTraces and pendingReads accumulate what the reads completed
	// since the last drain left behind, appended under readMu.
	rmu          sync.RWMutex
	readPool     sync.Pool
	readMu       sync.Mutex
	reads        memctrl.ReadDelta
	readTraces   []fsproto.ReadTrace
	pendingReads int

	// Request-trace plane (bracket-only, deterministic): scope buffers one
	// request's spans until the tail sampler's keep/drop decision.
	scope   *telemetry.TraceScope
	sampler *telemetry.TailSampler

	// Cluster plane. chipSeq is the controller key-derivation sequence the
	// shard booted with (0: per-process auto). logOn enables the admission
	// log; log and the checkpoint cursor below are bracket-only (readers go
	// through DoSide or a Hold).
	chipSeq   uint64
	logOn     bool
	log       logStore
	ckptEvery int
	sinceCkpt int
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
	// Detached boots the shard with its machine taken and write-locked: the
	// caller replays an admission log into it first, then calls Start (no op
	// and no fast read runs before).
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
	sh.gate.now = uint64(sys.M.MaxCoreTime())
	if so.Detached {
		sh.gate.mach = machBoot
		sh.rmu.Lock()
	}
	return sh
}

// Start hands a detached shard's machine, taken since boot, to what waits
// for it. Called by what owns the booting machine; idempotent.
func (sh *Shard) Start() { sh.closeWith((*gate[turn]).start) }

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
// actually has to wait. Only an admitted task's wait ends in a context error
// (ctx.Err() or DeadlineExceeded): the task still runs at its turn (await).
// It runs at once, with no queue wait, if the gate finds the machine free.
func (sh *Shard) submit(ctx context.Context, deadline time.Time, t task) (any, error) {
	dl := deadlineTimer{at: deadline}
	defer dl.stop()
	sh.mu.Lock()
	t.ts = sh.tenant(t.tenant)
	sh.mu.Unlock()
	if !takeSlot(ctx, &dl, t.ts.slots) {
		return nil, &BusyError{Tenant: t.tenant, Depth: sh.depth.Load()}
	}
	sh.gDepth.Set(uint64(sh.depth.Add(1)))
	d := sh.step(func(g *gate[turn]) verdict[turn] { return g.arrive(&t.ts.lane, newTurn) })
	switch {
	case d.err != nil:
		sh.taskDone(t)
		return nil, d.err
	case d.wait != nil:
		w := t // only a waiting task escapes, to a late turn's goroutine
		var err error
		if t.enq, err = await(ctx, &dl, d.wait, func(enq uint64) {
			w.enq = enq
			sh.exec(w)
			sh.handOff()
		}); err != nil {
			return nil, err
		}
	default:
		t.enq = uint64(sh.Sys.M.MaxCoreTime())
	}
	v, err := sh.exec(t)
	sh.handOff()
	return v, err
}

// await waits for the machine to be handed over on tn and returns the
// waiter's enq. When ctx is done or dl expires first, await returns that
// error at once and leaves a goroutine to take the turn and call late, which
// closes the bracket, so what waited always runs, and in its order.
func await(ctx context.Context, dl *deadlineTimer, tn turn, late func(enq uint64)) (uint64, error) {
	var err error
	select {
	case enq := <-tn:
		return enq, nil
	case <-ctx.Done():
		err = ctx.Err()
	case <-dl.expired():
		err = context.DeadlineExceeded
	}
	go func() { late(<-tn) }()
	return 0, err
}

// turn is a Shard's waiter: the machine, and the waiter's queue-wait start,
// arrive on it.
type turn = chan uint64

func newTurn() turn { return make(turn, 1) }

// step makes one gate event under sh.mu and carries out its verdict.
func (sh *Shard) step(ev func(*gate[turn]) verdict[turn]) verdict[turn] {
	sh.mu.Lock()
	d := ev(&sh.gate)
	sh.mu.Unlock()
	sh.carry(d)
	return d
}

// handOff closes the caller's bracket.
func (sh *Shard) handOff() { sh.closeWith((*gate[turn]).end) }

// closeWith closes the caller's bracket with event ev at the shard's clock.
func (sh *Shard) closeWith(ev func(*gate[turn], uint64) verdict[turn]) {
	now := uint64(sh.Sys.M.MaxCoreTime())
	sh.step(func(g *gate[turn]) verdict[turn] { return ev(g, now) })
}

// carry does what a verdict asks of the shell, after sh.mu is released. A
// bracket that takes a free machine locks it (readers in flight finish
// first) and folds in the reads completed since the last, so audit records
// never reorder across the mutations that follow them; one handed the
// machine skips both. Handing the machine on readies the waiter into this
// goroutine's P. On one P the caller keeps running, so its answer goes out
// first; on more than one it yields, so the waiter's bracket starts at once
// on the warm P while the caller continues on another.
func (sh *Shard) carry(d verdict[turn]) {
	if d.lock {
		sh.rmu.Lock()
		sh.drainDeltas()
	}
	if d.unlock {
		sh.rmu.Unlock()
	}
	for _, tn := range d.closers {
		close(tn)
	}
	if d.to != nil {
		d.to <- d.enq
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
// waits for it: observability reads (the audit log's device window, recovery
// checks) serialized with simulated work, without a fairness turn. Side work
// goes ahead of every waiting op, in the order it was sent, and runs under a
// Hold too. ctx bounds the wait; side work that stops waiting still runs.
func (sh *Shard) DoSide(ctx context.Context, fn func()) error {
	d := sh.step(func(g *gate[turn]) verdict[turn] { return g.arrive(nil, newTurn) })
	if d.wait != nil {
		_, d.err = await(ctx, &deadlineTimer{}, d.wait, func(uint64) { fn(); sh.handOff() })
	}
	if d.err == nil {
		fn()
		sh.handOff()
	}
	return d.err
}

// taskDone returns the resources of an admitted task.
func (sh *Shard) taskDone(t task) {
	<-t.ts.slots
	sh.gDepth.Set(uint64(sh.depth.Add(-1)))
}

// exec runs an admitted task inside its caller's mutation bracket and
// returns its resources.
func (sh *Shard) exec(t task) (v any, err error) {
	// A retired shard (migrated away, or closed before Start) answers the
	// retire error: the client retries at the new owner, and since the task
	// never executed, the retry cannot duplicate work.
	if err = sh.gate.retired; err == nil {
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
	rootStart := min(t.enq, start)
	wait := start - rootStart
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

// Hold keeps a shard's machine between brackets, the quiesce primitive of
// live migration: the machine lock is handed to no admitted op and stays
// write-locked, so snapshot readers stay out and requests queue, while side
// work (audit export, log pulls, the stat fallback) still runs, serialized
// with Run.
type Hold struct{ sh *Shard }

// Hold takes the shard at once: the bracket open now, if any, is the last
// op before the hold. It fails with ErrHeld, the retire error once a hold
// retired the shard, or ErrDraining once it closed. ctx is not used.
func (sh *Shard) Hold(context.Context) (*Hold, error) {
	h := &Hold{sh: sh}
	d := sh.step(func(g *gate[turn]) verdict[turn] { return g.hold(h) })
	if d.lock {
		sh.handOff()
	}
	if d.err != nil {
		return nil, d.err
	}
	return h, nil
}

// Run executes fn as side work and waits for it. If the shard closed under
// the hold, fn does not run.
func (h *Hold) Run(fn func()) { _ = h.sh.DoSide(context.Background(), fn) }

// Resume releases the hold, as side work: the ops waiting behind it run
// (migration rollback). A second or stale release changes nothing.
func (h *Hold) Resume() { h.release(nil) }

// Retire releases the hold and retires the shard (migration cutover): every
// waiting and future task and every later Hold is answered with err, the
// routing error pointing at the new owner, and fast reads are refused.
func (h *Hold) Retire(err error) { h.release(err) }

func (h *Hold) release(err error) {
	h.Run(func() {
		h.sh.mu.Lock()
		h.sh.gate.release(h, err)
		h.sh.mu.Unlock()
	})
}

// Close drains the shard: admission stops (new Do calls get ErrDraining),
// every already-admitted task runs to completion and is answered, then Close
// takes the machine for good: side work sent later gets ErrDraining. On a
// detached shard never started, what waited for Start is answered
// ErrDraining without executing. Safe to call more than once.
func (sh *Shard) Close() {
	if d := sh.step(func(g *gate[turn]) verdict[turn] { return g.close(newTurn) }); d.wait != nil {
		<-d.wait
	}
}
