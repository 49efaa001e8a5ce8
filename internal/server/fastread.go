package server

// Concurrent read fast-path: read-only ops (file read, stat, KV get) take
// no turn on the machine at all: they run on the calling goroutine against
// a quiescent snapshot of the shard's machine.
//
// The consistency scheme is the shard's RWMutex and nothing else: it is
// the machine lock, held for writing across every mutation bracket and
// handed from one bracket to the next without an unlock (Shard.handOff), and
// a reader TryRLocks it — which fails while a bracket holds the lock or
// waits for it — and runs the whole op under that one read lock: a
// kernel.SnapshotReader opened on the file (or store) with the bracket's
// own checks, then loads by offset — the read's range, or a B+Tree walk
// (kvstore.Lookup). Anything else — the lock refused fastReadRetries times,
// or a snapshot-unservable condition (unresolved key, unfaulted page, locked
// datapath, non-DAX mode, an op a bracket would refuse) — makes the reader
// fall back to ordinary admission, which re-runs the op in a bracket with
// exact live semantics. The fast path is success-only; it never invents an
// error.
//
// Side effects the live read path would have produced (stats, audit
// records, Osiris ECC accounting) are deferred into pooled ReadDelta
// buffers pushed onto a lock-free stack; the next bracket to take a free
// machine merges what it finds there into one delta and applies it to the
// controller, under the machine lock, stamped with the shard's clock. On a
// logged shard that delta — not the reads — is the log's record of them:
// one RecReadDeltas record at that position, which a replayer applies the
// same way, at the same clock (applyReads).
//
// Gating: -serial-reads servers always take admission.

import (
	"runtime"

	"fsencr/internal/fsproto"
	"fsencr/internal/kernel"
	"fsencr/internal/memctrl"
)

const (
	// fastReadRetries bounds read-lock attempts before a read falls back to
	// admission.
	fastReadRetries = 2
	// deltaDrainThreshold is the number of undrained read deltas at which a
	// reader drains them itself (askDrain).
	deltaDrainThreshold = 256
)

// deltaNode is one deferred-side-effect buffer on the shard's lock-free
// Treiber stack (pushed by readers, swapped out whole by a bracket).
// trace and kind carry the read's wire trace context and op, so the drain
// can give every sampled fast read its one tail-sampling decision, under
// the op's root-span name, at drain time — the invariant "every sampled
// request gets exactly one kept/dropped verdict" survives the read leaving
// the admission plane.
type deltaNode struct {
	d     *memctrl.ReadDelta
	trace fsproto.TraceContext
	kind  fsproto.Kind
	next  *deltaNode
}

// enterMut opens a bracket on a free machine: the machine lock (readers in
// flight finish first, new ones are refused), then the deferred side
// effects of reads that completed since the last bracket are folded in, so
// audit records never reorder across the mutations that follow them. A
// bracket handed the machine skips both: no reader got in since the last.
func (sh *Shard) enterMut() {
	sh.rmu.Lock()
	sh.drainDeltas()
}

// drainDeltas merges every delta pushed since the last drain into one and
// applies it. Runs under the machine lock, as a bracket opens. A drain that found
// nothing to apply — reads the simulated caches served whole, none sampled
// — leaves no trace, in the log neither.
func (sh *Shard) drainDeltas() {
	head := sh.deltas.Swap(nil)
	if head == nil {
		return
	}
	d, drained := &sh.drained, int64(0)
	for n := head; n != nil; n = n.next {
		drained++
		d.Add(n.d)
		if n.trace.Sampled && n.trace.TraceID != 0 {
			sh.drainedTraces = append(sh.drainedTraces, fsproto.ReadTrace{TraceID: n.trace.TraceID, Parent: n.trace.Parent, Kind: n.kind})
		}
		sh.putDelta(n.d)
	}
	sh.pendingDeltas.Add(-drained)
	if !d.Empty() || len(sh.drainedTraces) > 0 {
		sh.applyReads(d, sh.drainedTraces)
	}
	d.Reset()
	sh.drainedTraces = sh.drainedTraces[:0]
}

// applyReads applies the side effects of reads served under the read lock — a
// drain's, or a RecReadDeltas record's on replay — stamped with the shard's
// clock: snapshot reads advance none of their own, and at a log position a
// replayer's clock is the source's. A logged shard records them there.
func (sh *Shard) applyReads(d *memctrl.ReadDelta, traces []fsproto.ReadTrace) {
	now := sh.Sys.M.MaxCoreTime()
	sh.Sys.M.MC.ApplyReadDelta(now, d)
	for _, t := range traces {
		// A fast read records no component spans (readers cannot touch the
		// shard's registry), so its trace is a single zero-length root — but
		// it still gets exactly one sampler decision.
		sh.scope.Begin(t.TraceID, t.Parent)
		sh.scope.Enter()
		sh.scope.Exit("request", t.Kind.String(), uint64(now), uint64(now), 0)
		sh.scope.End(sh.sampler.Keep(t.TraceID, 0, false))
	}
	if sh.logOn {
		sh.log.append(&fsproto.LogRecord{Kind: fsproto.RecReadDeltas, Delta: *d, Traces: traces})
	}
}

// pushDelta hands a completed read's side effects to the next mutation
// bracket, which folds them in.
func (sh *Shard) pushDelta(d *memctrl.ReadDelta, tc fsproto.TraceContext, kind fsproto.Kind) {
	n := &deltaNode{d: d, trace: tc, kind: kind}
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
// until somebody writes: with deltaDrainThreshold deltas pending, the reader
// opens an empty bracket of its own if the machine lock is free and drains
// there. Called with the read lock released. If a bracket holds the lock, or
// another reader, the next bracket or reader drains instead.
func (sh *Shard) askDrain() {
	if sh.pendingDeltas.Load() >= deltaDrainThreshold && sh.rmu.TryLock() {
		sh.drainDeltas()
		sh.rmu.Unlock()
	}
}

func (sh *Shard) putDelta(d *memctrl.ReadDelta) {
	d.Reset()
	sh.deltaPool.Put(d)
}

// tryReadLocked runs fn under the read lock, trying for it fastReadRetries
// times. false: a bracket kept the lock, or the shard is closed, and fn did
// not run; fall back.
func (sh *Shard) tryReadLocked(fn func()) bool {
	for attempt := 0; attempt < fastReadRetries; attempt++ {
		if sh.rmu.TryRLock() {
			ok := !sh.closed.Load()
			if ok {
				fn()
			}
			sh.rmu.RUnlock()
			return ok
		}
		runtime.Gosched()
	}
	return false
}

// tryFast serves op kind under the read lock: name opened for sess, then
// load, which fills the reply and returns its length. false, on any failure,
// means fall back to admission, so a bracket answers every error.
func (sh *Shard) tryFast(sess *Session, tc fsproto.TraceContext, kind fsproto.Kind, name, passphrase string, load func(*kernel.SnapshotReader) (int, error)) (n int, ok bool) {
	sh.tryReadLocked(func() {
		sr := sh.readPool.Get().(*kernel.SnapshotReader)
		d := sh.deltaPool.Get().(*memctrl.ReadDelta)
		if sr.Open(sess.uid, sess.gid, name, passphrase, d) {
			var err error
			n, err = load(sr)
			ok = err == nil
		}
		if ok {
			sh.pushDelta(d, tc, kind)
		} else {
			sh.putDelta(d)
		}
		sh.readPool.Put(sr)
	})
	if ok {
		sh.askDrain()
	}
	return n, ok
}
