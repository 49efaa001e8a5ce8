package server

import "context"

// Hold keeps a shard's machine between brackets: while Shard.held names it,
// the machine lock is not handed to any admitted op, and stays write-locked
// when no bracket is open, so closures passed to Run have the simulated
// machine with nothing interleaving — the quiesce primitive of live
// migration. Taking, using and releasing the shard are side work (DoSide):
// snapshot readers stay out and no admitted op runs for the whole hold,
// while side work (audit export, log pulls, the stat fallback) still runs,
// serialized with Run. Requests queue behind the hold; Resume serves them,
// Retire answers them (and everything after) with the given error.
type Hold struct{ sh *Shard }

// Hold takes the shard if it is free and fails with ErrHeld if another Hold
// owns it. ctx bounds the wait (side work goes ahead of every waiting op,
// so the take waits for the bracket open now only).
func (sh *Shard) Hold(ctx context.Context) (*Hold, error) {
	h := &Hold{sh: sh}
	refused := false
	err := sh.DoSide(ctx, func() {
		sh.mu.Lock()
		if refused = sh.held != nil; !refused {
			sh.held = h
		}
		sh.mu.Unlock()
	})
	if err != nil {
		// The take keeps its turn and may win the shard later; side work runs
		// in the order it was sent, so a release posted now runs after it. An
		// abandoned hold cannot wedge the shard, nor (release checks the
		// owner) free another's.
		go h.release(nil)
		return nil, err
	}
	if refused {
		return nil, ErrHeld
	}
	return h, nil
}

// Run executes fn as side work and waits for it. If the shard closed under
// the hold, fn does not run.
func (h *Hold) Run(fn func()) { _ = h.sh.DoSide(context.Background(), fn) }

// Resume releases the hold; the ops waiting behind it run (migration
// rollback).
func (h *Hold) Resume() { h.release(nil) }

// Retire releases the hold and marks the shard retired: every waiting and
// future task is answered with err instead of executing (migration
// cutover; err is the routing error pointing at the new owner).
func (h *Hold) Retire(err error) { h.release(err) }

// release frees the shard if h still owns it; a second release, or that of a
// Hold that never won the shard, changes nothing.
func (h *Hold) release(err error) {
	sh := h.sh
	_ = sh.DoSide(context.Background(), func() {
		sh.mu.Lock()
		mine := sh.held == h
		if mine {
			sh.held = nil
		}
		sh.mu.Unlock()
		if mine && err != nil {
			sh.retired = err
			sh.closed.Store(true) // the hold's write lock is still in place
		}
	})
}
