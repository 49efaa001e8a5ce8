package server

// gate is a shard's admission state. Each decision of the machine lock is an
// event: a call under Shard.mu returning a verdict for Shard.carry. It holds
// no lock, clock or goroutine: a waiter W is a turn channel in a Shard, an
// actor in gate_test.go. DESIGN §6c has the transition table.
type gate[W any] struct {
	mach   int   // machFree, machTaken, machBoot or machDown
	holder *Hold // keeps the machine between brackets
	// retired is answered to later brackets' ops and to later Holds; it is
	// written with the lock write-held, so a read-lock holder may look.
	retired  error
	draining bool         // Close began: no op is admitted
	now      uint64       // the shard clock at the last bracket's end
	arrivals []waiter[W]  // waiting ops, not yet stamped
	q        fairQueue[W] // the stamped ones
	sides    fifo[W]      // waiting side work, served first
	closers  []W          // Close calls waiting for machDown
}

// Who has the machine: no one; a bracket, or the waiter it is handed to; a
// detached shard's boot, until start; Close, for good.
const (
	machFree = iota
	machTaken
	machBoot
	machDown
)

// verdict is what an event asks of the shell, in this order: lock a free
// machine the caller takes (else it waits on wait, or is refused with err);
// unlock the machine; answer the closers; hand the machine on to to.
type verdict[W any] struct {
	lock, unlock bool
	wait, to     W
	enq          uint64
	err          error
	closers      []W
}

// arrive: an op of tenant lane ln, or side work (ln nil), asks for the
// machine; mk makes the turn it waits on. Side work takes a held machine
// too, and stamps what arrived while the hold kept it idle.
func (g *gate[W]) arrive(ln *lane[W], mk func() W) (v verdict[W]) {
	switch {
	case g.mach == machDown || g.draining && ln != nil:
		v.err = ErrDraining
	case g.mach == machFree && (ln == nil || g.holder == nil):
		g.mach, v.lock = machTaken, g.holder == nil
		g.stamp(g.now)
	case ln == nil:
		v.wait = mk()
		g.sides.push(v.wait)
	default:
		v.wait = mk()
		g.arrivals = append(g.arrivals, waiter[W]{w: v.wait, ln: ln})
	}
	return v
}

// end: the open bracket ends at clock now, which stamps the arrivals. The
// machine goes to side work, else (unheld) to the next op, else down once
// draining with no op left, else it is free.
func (g *gate[W]) end(now uint64) (v verdict[W]) {
	g.now = now
	g.stamp(now)
	g.mach = machTaken
	switch {
	case g.sides.len() > 0:
		v.to = g.sides.pop()
	case g.holder == nil && g.q.ready.len() > 0:
		a := g.q.pop()
		v.to, v.enq = a.w, a.enq
	case g.draining && g.q.ready.len() == 0:
		g.mach, v.closers, g.closers = machDown, g.closers, nil
	default:
		g.mach, v.unlock = machFree, g.holder == nil
	}
	return v
}

// hold: h keeps the machine between brackets from now on, unless the shard
// is down (ErrDraining), retired (the retire error) or held (ErrHeld). The
// caller takes a free machine, to lock it, and ends that bracket at once.
func (g *gate[W]) hold(h *Hold) (v verdict[W]) {
	switch {
	case g.mach == machDown:
		v.err = ErrDraining
	case g.retired != nil:
		v.err = g.retired
	case g.holder != nil:
		v.err = ErrHeld
	case g.mach == machFree:
		g.mach, v.lock, g.holder = machTaken, true, h
	default:
		g.holder = h
	}
	return v
}

// release, in a side bracket: h frees the shard if it holds it, retiring it
// with err if err is not nil.
func (g *gate[W]) release(h *Hold, err error) {
	if g.holder == h {
		g.holder, g.retired = nil, err
	}
}

// start: a detached shard's boot hands the machine on, as a bracket ends.
func (g *gate[W]) start(now uint64) verdict[W] {
	if g.mach != machBoot {
		return verdict[W]{}
	}
	return g.end(now)
}

// close stops admission. Close takes the machine for good at once if no one
// has it and no op waits, else at the end of the last op's bracket. A
// detached shard not started retires with ErrDraining, and boot hands the
// machine on, so that what waited for Start is answered.
func (g *gate[W]) close(mk func() W) (v verdict[W]) {
	g.draining = true
	switch {
	case g.mach == machFree && len(g.arrivals) == 0 && g.q.ready.len() == 0:
		g.mach, v.lock = machDown, g.holder == nil
	case g.mach != machDown:
		w := mk()
		if g.closers = append(g.closers, w); g.mach == machBoot {
			g.retired = ErrDraining
			v = g.end(g.now)
		}
		v.wait = w
	}
	return v
}

// stamp moves the arrivals to the fair queue with clock now as the start of
// their queue wait: the clock they arrived at, since only a bracket moves it.
func (g *gate[W]) stamp(now uint64) {
	for i, a := range g.arrivals {
		g.q.push(a, now)
		g.arrivals[i] = waiter[W]{}
	}
	g.arrivals = g.arrivals[:0]
}

// waiter is a waiting op: its turn, its tenant's lane and its stamp.
type waiter[W any] struct {
	w   W
	ln  *lane[W]
	enq uint64
}

// lane is one tenant's FIFO of stamped ops.
type lane[W any] struct{ fifo[waiter[W]] }

// fairQueue serves the tenants with pending work round-robin, each tenant's
// ops in arrival order, so a burst from one tenant queues behind its own
// earlier requests, not everyone else's. ready holds exactly the lanes that
// are not empty, whatever the number of tenants seen.
type fairQueue[W any] struct{ ready fifo[*lane[W]] }

func (q *fairQueue[W]) push(a waiter[W], now uint64) {
	if a.enq = now; a.ln.len() == 0 {
		q.ready.push(a.ln)
	}
	a.ln.push(a)
}

func (q *fairQueue[W]) pop() waiter[W] { // the queue is not empty
	ln := q.ready.pop()
	a := ln.pop()
	if ln.len() > 0 {
		q.ready.push(ln) // more pending: the tenant goes to the back
	}
	return a
}

// fifo is a queue, s[head:], that drops what it served and reclaims its
// served prefix (one move per pop at most), so a busy one does not grow.
type fifo[T any] struct {
	s    []T
	head int
}

func (f *fifo[T]) len() int { return len(f.s) - f.head }
func (f *fifo[T]) push(v T) { f.s = append(f.s, v) }

func (f *fifo[T]) pop() T {
	v := f.s[f.head]
	clear(f.s[f.head : f.head+1])
	if f.head++; 2*f.head >= len(f.s) {
		n := copy(f.s, f.s[f.head:])
		clear(f.s[n:])
		f.s, f.head = f.s[:n], 0
	}
	return v
}
