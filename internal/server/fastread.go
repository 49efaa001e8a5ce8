package server

// Concurrent read fast-path: read-only ops (file read, stat) leave the
// shard worker's admission queue entirely and run on the calling HTTP
// goroutine against a consistent snapshot of the shard's machine.
//
// The consistency scheme is a seqlock/epoch counter hybridized with an
// RWMutex (a naked seqlock over the simulator's pointer-rich state would
// be a Go data race): the worker (Shard.run) wraps every mutation batch in
// enterMut/exitMut — writer lock plus version bump to odd and back — and a
// reader (a) checks the version is even, (b) TryRLocks, (c) re-checks the
// version, (d) runs the decrypt-read through the kernel/controller
// snapshot entry points, (e) unlocks. Any anomaly — mutation in flight,
// lock contention, version churn, or a snapshot-unservable condition
// (unresolved key, unfaulted page, locked datapath, non-DAX mode) — makes
// the reader fall back to ordinary worker admission, which re-runs the op
// with exact live semantics. The fast path is success-only; it never
// invents an error.
//
// Side effects the live read path would have produced (stats, audit
// records, Osiris ECC accounting) are deferred into pooled ReadDelta
// buffers pushed onto a lock-free stack; the worker folds them into the
// controller at its next mutation, under its own lock, stamped with its
// own clock.
//
// Large reads additionally fan their page decrypts across a bounded
// process-wide crypt pool: each worker chunk decrypts with its own Reader
// into disjoint ranges of the caller's buffer, so the output is deterministic
// regardless of scheduling.
//
// Gating: deterministic shards (state must stay a pure function of the
// schedule), logged shards (every op must be an admission-log record), and
// -serial-reads servers always take the worker path.

import (
	"runtime"
	"sync"

	"fsencr/internal/fsproto"
	"fsencr/internal/kernel"
	"fsencr/internal/memctrl"
)

const (
	// fastReadRetries bounds seqlock acquisition attempts before a read
	// falls back to worker admission.
	fastReadRetries = 2
	// fanMinSpans is the page-span count from which a snapshot read fans
	// its decrypts across the crypt pool instead of running serially.
	fanMinSpans = 4
	// groupCommitBatch bounds how many admitted tasks the worker serves
	// under one writer-lock acquisition (Shard.run).
	groupCommitBatch = 8
	// deltaDrainThreshold is the number of undrained read deltas at which a
	// reader asks the worker for a drain (askDrain).
	deltaDrainThreshold = 256
)

// cryptSlots bounds process-wide concurrent page-crypt helpers to the core
// count. The fanning reader always decrypts its first chunk itself and
// claims slots non-blockingly for the rest, so a saturated pool degrades
// to serial decrypt instead of queueing behind other readers.
var cryptSlots = make(chan struct{}, runtime.GOMAXPROCS(0))

// deltaNode is one deferred-side-effect buffer on the shard's lock-free
// Treiber stack (pushed by readers, swapped out whole by the worker).
// trace carries the read's wire trace context so the worker can give every
// sampled fast read its one tail-sampling decision at drain time — the
// invariant "every sampled request gets exactly one kept/dropped verdict"
// survives the read leaving the admission plane.
type deltaNode struct {
	d     *memctrl.ReadDelta
	trace fsproto.TraceContext
	next  *deltaNode
}

// enterMut begins a worker mutation batch: version to odd (readers that
// sample it now refuse to start), writer lock (readers in flight finish
// first), then the deferred side effects of reads that completed since the
// last batch are folded in, so audit records never reorder across the
// mutations that follow them.
func (sh *Shard) enterMut() {
	sh.ver.Add(1)
	sh.rmu.Lock()
	sh.drainDeltas()
}

// exitMut ends the batch: version back to even, lock released.
func (sh *Shard) exitMut() {
	sh.ver.Add(1)
	sh.rmu.Unlock()
}

// drainDeltas applies every delta pushed since the last drain. Runs on the
// worker under the writer lock; the deferred records are stamped with the
// worker's current simulated clock (snapshot reads advance no clock of
// their own).
func (sh *Shard) drainDeltas() {
	// Cleared before the swap: a push that lands after it finds the flag
	// down and asks again (at worst one drain that finds little to do).
	sh.drainAsked.Store(false)
	head := sh.deltas.Swap(nil)
	if head == nil {
		return
	}
	now := sh.Sys.M.MaxCoreTime()
	drained := int64(0)
	for n := head; n != nil; n = n.next {
		drained++
		sh.Sys.M.MC.ApplyReadDelta(now, n.d)
		if n.trace.Sampled && n.trace.TraceID != 0 {
			// A fast read advances no simulated clock and records no
			// component spans (readers cannot touch the worker's registry),
			// so its trace is a single zero-length root stamped at drain
			// time — but it still gets exactly one sampler decision.
			sh.scope.Begin(n.trace.TraceID, n.trace.Parent)
			sh.scope.Enter()
			sh.scope.Exit("request", opRead.kind.String(), uint64(now), uint64(now), 0)
			sh.scope.End(sh.sampler.Keep(n.trace.TraceID, 0, false))
		}
		n.d.Reset()
		sh.deltaPool.Put(n.d)
	}
	sh.pendingDeltas.Add(-drained)
}

// pushDelta hands a completed read's side effects to the worker, which
// folds them in at its next mutation.
func (sh *Shard) pushDelta(d *memctrl.ReadDelta, tc fsproto.TraceContext) {
	n := &deltaNode{d: d, trace: tc}
	for {
		old := sh.deltas.Load()
		n.next = old
		if sh.deltas.CompareAndSwap(old, n) {
			break
		}
	}
	sh.pendingDeltas.Add(1)
}

// askDrain keeps a tenant that only reads from growing the delta stack
// until somebody writes: with deltaDrainThreshold deltas pending and no
// request outstanding, the reader posts a no-op on the side lane, which the
// worker runs inside enterMut/exitMut like any side task. Called with
// the read lock released, so the worker can start at once. The send never
// blocks a reader — a full lane holds side tasks that each drain on entry —
// and after one the reader yields: the send left the worker runnable behind
// this goroutine, and a handler in a tight loop of fast reads could
// otherwise run out its time slice, hundreds more pushes, before the drain
// starts.
func (sh *Shard) askDrain() {
	if sh.pendingDeltas.Load() < deltaDrainThreshold || !sh.drainAsked.CompareAndSwap(false, true) {
		return
	}
	select {
	case sh.side <- sideTask{fn: func() {}, done: make(chan struct{})}:
		runtime.Gosched()
	default:
	}
}

func (sh *Shard) getDelta() *memctrl.ReadDelta {
	return sh.deltaPool.Get().(*memctrl.ReadDelta)
}

func (sh *Shard) putDelta(d *memctrl.ReadDelta) {
	d.Reset()
	sh.deltaPool.Put(d)
}

// rLock runs the reader half of the seqlock protocol, returning true with
// the read lock held. False means a mutation is in flight or just raced
// us; the caller retries or falls back.
func (sh *Shard) rLock() bool {
	v := sh.ver.Load()
	if v&1 != 0 || !sh.rmu.TryRLock() {
		return false
	}
	if sh.ver.Load() != v {
		// A mutation batch slipped in between the version sample and the
		// lock; re-enter so the plan and the decrypt see one epoch.
		sh.rmu.RUnlock()
		return false
	}
	return true
}

// tryFastRead serves a file read without the worker. dst is fully written
// on success; on false its contents are unspecified and the caller must
// fall back to worker admission.
func (sh *Shard) tryFastRead(sess *Session, tc fsproto.TraceContext, name, passphrase string, off uint64, dst []byte) bool {
	for attempt := 0; attempt < fastReadRetries; attempt++ {
		if !sh.rLock() {
			runtime.Gosched()
			continue
		}
		ok := sh.snapshotRead(sess, tc, name, passphrase, off, dst)
		sh.rmu.RUnlock()
		if ok {
			sh.askDrain()
		}
		return ok
	}
	return false
}

// tryFastStat runs stat without the worker, under the read lock. false: the
// lock stayed contended and stat did not run; fall back.
func (sh *Shard) tryFastStat(stat func()) bool {
	for attempt := 0; attempt < fastReadRetries; attempt++ {
		if !sh.rLock() {
			runtime.Gosched()
			continue
		}
		stat()
		sh.rmu.RUnlock()
		return true
	}
	return false
}

// snapshotRead plans and executes one read under the held read lock.
func (sh *Shard) snapshotRead(sess *Session, tc fsproto.TraceContext, name, passphrase string, off uint64, dst []byte) bool {
	sr := sh.readPool.Get().(*kernel.SnapshotReader)
	plan, ok := sh.Sys.SnapshotReadPlan(sr, sess.uid, sess.gid, name, passphrase, off, uint64(len(dst)))
	if !ok {
		sh.readPool.Put(sr)
		return false
	}
	d := sh.getDelta()
	ok = sh.runSpans(sr, plan, dst, d)
	sh.readPool.Put(sr)
	if !ok {
		sh.putDelta(d)
		return false
	}
	sh.pushDelta(d, tc)
	return true
}

// runSpans decrypts a plan's spans into dst, serially for small reads and
// fanned across the crypt pool for large ones. Caller must hold the read
// lock for the whole call: the helper goroutines read shard state under
// the caller's lock (the go statement and WaitGroup give the necessary
// happens-before edges).
func (sh *Shard) runSpans(sr *kernel.SnapshotReader, plan []kernel.PageSpan, dst []byte, d *memctrl.ReadDelta) bool {
	if len(plan) < fanMinSpans {
		for _, sp := range plan {
			if !sh.Sys.SnapshotReadSpan(sr, sp, dst, d) {
				return false
			}
		}
		return true
	}
	nw := runtime.GOMAXPROCS(0)
	if nw > len(plan) {
		nw = len(plan)
	}
	chunk := (len(plan) + nw - 1) / nw
	nc := (len(plan) + chunk - 1) / chunk

	// Helper chunks get their own reader context and delta; deltas merge
	// in chunk order below, so the folded side effects are identical to a
	// serial walk of the plan.
	type helper struct {
		sr *kernel.SnapshotReader
		d  *memctrl.ReadDelta
		ok bool
	}
	bounds := func(ci int) (int, int) {
		lo, end := ci*chunk, (ci+1)*chunk
		if end > len(plan) {
			end = len(plan)
		}
		return lo, end
	}
	runChunk := func(h *helper, spans []kernel.PageSpan) {
		h.ok = true
		for _, sp := range spans {
			if !sh.Sys.SnapshotReadSpan(h.sr, sp, dst, h.d) {
				h.ok = false
				return
			}
		}
	}
	helpers := make([]helper, nc)
	var wg sync.WaitGroup
	for ci := 1; ci < nc; ci++ {
		select {
		case cryptSlots <- struct{}{}:
			h := &helpers[ci]
			h.sr = sh.readPool.Get().(*kernel.SnapshotReader)
			h.d = sh.getDelta()
			lo, end := bounds(ci)
			wg.Add(1)
			go func(h *helper, spans []kernel.PageSpan) {
				defer wg.Done()
				defer func() { <-cryptSlots }()
				runChunk(h, spans)
			}(h, plan[lo:end])
		default:
			// Pool saturated: this chunk runs on the caller, below.
		}
	}
	// The caller's chunk runs on the caller's goroutine, concurrent with
	// the helpers — then any chunks the saturated pool left behind, reusing
	// the caller's context.
	mine := helper{sr: sr, d: d}
	runChunk(&mine, plan[:chunk])
	ok := mine.ok
	for ci := 1; ci < nc && ok; ci++ {
		if helpers[ci].sr != nil {
			continue
		}
		lo, end := bounds(ci)
		mine = helper{sr: sr, d: d}
		runChunk(&mine, plan[lo:end])
		ok = mine.ok
	}
	wg.Wait()
	for ci := 1; ci < nc; ci++ {
		h := &helpers[ci]
		if h.sr == nil {
			continue
		}
		ok = ok && h.ok
		d.Merge(h.d)
		sh.putDelta(h.d)
		sh.readPool.Put(h.sr)
	}
	return ok
}
