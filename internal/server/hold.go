package server

import "context"

// Hold owns a shard's worker: while Shard.held names it, run pops no
// admitted task, so closures passed to Run have the simulated machine with
// nothing interleaving — the quiesce primitive of live migration. Taking,
// using and releasing the shard are side work (DoSide), and the taking one
// leaves the worker's mutation bracket open (run): snapshot readers stay out
// and no admitted op runs inline for the whole hold, while read-only side
// work (audit export, log pulls, the stat fallback) is still served. Requests
// queue behind the hold; Resume serves them, Retire answers them (and
// everything after) with the given error.
type Hold struct{ sh *Shard }

// Hold takes the shard if it is free and fails with ErrHeld if another Hold
// owns it. ctx bounds the wait (under sustained load the worker picks the
// side work up between servings).
func (sh *Shard) Hold(ctx context.Context) (*Hold, error) {
	h := &Hold{sh: sh}
	refused := false
	err := sh.DoSide(ctx, func() {
		if refused = sh.held != nil; !refused {
			sh.held = h
		}
	})
	if err != nil {
		// The take may still be on the ingress and win the shard later; side
		// work runs in the order it was sent, so a release posted now runs
		// after it. An abandoned hold
		// cannot wedge the shard, nor (release checks the owner) free another's.
		go h.release(nil)
		return nil, err
	}
	if refused {
		return nil, ErrHeld
	}
	return h, nil
}

// Run executes fn on the worker and waits for it. If the shard shut down
// under the hold, fn does not run.
func (h *Hold) Run(fn func()) { _ = h.sh.DoSide(context.Background(), fn) }

// Resume releases the hold; the worker resumes normal serving (migration
// rollback).
func (h *Hold) Resume() { h.release(nil) }

// Retire releases the hold and marks the shard retired: every queued and
// future task is answered with err instead of executing (migration
// cutover; err is the routing error pointing at the new owner).
func (h *Hold) Retire(err error) { h.release(err) }

// release frees the shard if h still owns it; a second release, or that of a
// Hold that never won the shard, changes nothing.
func (h *Hold) release(err error) {
	_ = h.sh.DoSide(context.Background(), func() {
		if h.sh.held != h {
			return
		}
		h.sh.held = nil
		if err != nil {
			h.sh.retired = err
			h.sh.closed.Store(true) // the hold's bracket is still open
		}
	})
}
