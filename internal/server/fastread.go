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
// records, Osiris ECC accounting) are deferred: a read collects them in its
// pooled context's ReadDelta and, once it has succeeded, appends them to the
// shard's one accumulator under readMu while it still holds the read lock.
// So the accumulator lists reads in the order they completed. The next
// bracket to take a free machine applies it to the controller as one delta,
// under the machine lock, stamped with the shard's clock; it takes no readMu
// for that, since holding the machine lock for writing keeps every reader
// out. On a logged shard that delta — not the reads — is the log's record of
// them: one RecReadDeltas record at that position, which a replayer applies
// the same way, at the same clock (applyReads).
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
	// deltaDrainThreshold is the number of undrained reads at which a reader
	// drains them itself (askDrain).
	deltaDrainThreshold = 256
)

// readCtx is one pooled read context: a snapshot reader and the delta its
// loads defer their side effects into until the read is pushed.
type readCtx struct {
	sr *kernel.SnapshotReader
	d  memctrl.ReadDelta
}

// drainDeltas applies the reads accumulated since the last drain and empties
// the accumulator. Runs under the machine lock, as a bracket opens, so no
// reader can push meanwhile and readMu is not needed. A drain that found
// nothing to apply — reads the simulated caches served whole, none sampled
// — leaves no trace, in the log neither.
func (sh *Shard) drainDeltas() {
	if !sh.reads.Empty() || len(sh.readTraces) > 0 {
		sh.applyReads(&sh.reads, sh.readTraces)
		sh.reads.Reset()
		sh.readTraces = sh.readTraces[:0]
	}
	sh.pendingReads = 0
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

// pushDelta appends a completed read's side effects to the shard's
// accumulator, for the next bracket to apply, and returns how many reads it
// now holds. tc and kind give a sampled read its one tail-sampling decision,
// under the op's root-span name, at drain time: every sampled request gets
// exactly one kept/dropped verdict, off the admission plane too. Called
// under the read lock.
func (sh *Shard) pushDelta(d *memctrl.ReadDelta, tc fsproto.TraceContext, kind fsproto.Kind) int {
	sh.readMu.Lock()
	defer sh.readMu.Unlock()
	sh.reads.Add(d)
	if tc.Sampled && tc.TraceID != 0 {
		sh.readTraces = append(sh.readTraces, fsproto.ReadTrace{TraceID: tc.TraceID, Parent: tc.Parent, Kind: kind})
	}
	sh.pendingReads++
	return sh.pendingReads
}

// askDrain keeps a tenant that only reads from growing the accumulator until
// somebody writes: once pending reads reach deltaDrainThreshold, the reader
// opens an empty bracket of its own if the machine lock is free and drains
// there. Called with the read lock released. If a bracket holds the lock, or
// another reader, the next bracket or reader drains instead.
func (sh *Shard) askDrain(pending int) {
	if pending >= deltaDrainThreshold && sh.rmu.TryLock() {
		sh.drainDeltas()
		sh.rmu.Unlock()
	}
}

// tryReadLocked runs fn under the read lock, trying for it fastReadRetries
// times. false: a bracket kept the lock, or the shard retired, and fn did
// not run; fall back.
func (sh *Shard) tryReadLocked(fn func()) bool {
	for attempt := 0; attempt < fastReadRetries; attempt++ {
		if sh.rmu.TryRLock() {
			ok := sh.gate.retired == nil
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
	pending := 0
	sh.tryReadLocked(func() {
		rc := sh.readPool.Get().(*readCtx)
		if rc.sr.Open(sess.uid, sess.gid, name, passphrase, &rc.d) {
			var err error
			n, err = load(rc.sr)
			ok = err == nil
		}
		if ok {
			pending = sh.pushDelta(&rc.d, tc, kind)
		}
		rc.d.Reset()
		sh.readPool.Put(rc)
	})
	if ok {
		sh.askDrain(pending)
	}
	return n, ok
}
