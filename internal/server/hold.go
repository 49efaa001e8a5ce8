package server

import "context"

// Hold pins a shard's worker goroutine: while held, the worker executes
// only closures passed to Run, so the holder has exclusive, serialized
// access to the simulated machine with no admitted task interleaving —
// the quiesce primitive of live migration. Requests keep arriving and
// queue behind the hold; Resume serves them normally, Retire answers them
// (and everything after) with the given error.
type Hold struct {
	sh      *Shard
	work    chan func()
	end     chan error
	entered chan struct{}
}

// Hold parks the shard's worker. It returns once the worker is parked; ctx
// bounds the wait (under sustained load the worker picks the park up
// between servings).
func (sh *Shard) Hold(ctx context.Context) (*Hold, error) {
	h := &Hold{sh: sh, work: make(chan func()), end: make(chan error), entered: make(chan struct{})}
	st := sideTask{fn: h.park, done: make(chan struct{})}
	select {
	case sh.side <- st:
	case <-sh.stopped:
		return nil, ErrDraining
	case <-ctx.Done():
		return nil, ctx.Err()
	}
	select {
	case <-h.entered:
		return h, nil
	case <-sh.stopped:
		return nil, ErrDraining
	case <-ctx.Done():
		// The park may still start later; release it as soon as it does so
		// an abandoned hold cannot wedge the shard.
		go h.release(nil)
		return nil, ctx.Err()
	}
}

// park runs on the worker goroutine until Resume, Retire, or shard
// shutdown (a Close under an active hold releases the worker so it can
// drain and exit instead of deadlocking).
func (h *Hold) park() {
	close(h.entered)
	for {
		select {
		case fn := <-h.work:
			fn()
		case err := <-h.end:
			if err != nil {
				h.sh.retired = err
			}
			return
		case <-h.sh.stop:
			return
		}
	}
}

// Run executes fn on the held worker and waits for it. If the shard shut
// down under the hold, fn does not run.
func (h *Hold) Run(fn func()) {
	done := make(chan struct{})
	select {
	case h.work <- func() { fn(); close(done) }:
	case <-h.sh.stopped:
		return
	}
	select {
	case <-done:
	case <-h.sh.stopped:
	}
}

// Resume releases the hold; the worker resumes normal serving (migration
// rollback).
func (h *Hold) Resume() { h.release(nil) }

// Retire releases the hold and marks the shard retired: every queued and
// future task is answered with err instead of executing (migration
// cutover; err is the routing error pointing at the new owner).
func (h *Hold) Retire(err error) { h.release(err) }

func (h *Hold) release(err error) {
	select {
	case h.end <- err:
	case <-h.sh.stopped:
	}
}
