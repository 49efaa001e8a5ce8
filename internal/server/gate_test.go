package server

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"slices"
	"strings"
	"testing"
	"time"
)

// TestGateEveryInterleaving drives the gate, the machine lock's admission
// state, through every interleaving of every scenario of at most four actors
// and eight events, and checks the invariants of DESIGN §6c after each step.
// An actor is an op of one of two tenants (which may stop waiting), side
// work, a Hold that then resumes or retires the shard, a Close, or the boot
// of a detached shard that starts it. The model around the gate is the
// shell's: each gate call carries out its verdict at once, a turn handed on
// is received by its waiter in a step of its own, and a waiter that stopped
// waiting receives it through the shell's own await, whose late goroutine
// must run the bracket. The depth-first search hashes states, so a state
// reached by two orders is explored once.
func TestGateEveryInterleaving(t *testing.T) {
	var scenarios, states int
	var walk func(from int, acts []actorSpec)
	walk = func(from int, acts []actorSpec) {
		run := func(sc []actorSpec, boot bool) {
			if len(sc) > 0 && len(sc) <= maxActors && events(sc) <= maxEvents {
				scenarios++
				states += explore(t, sc, boot)
			}
		}
		run(acts, false)
		// A detached shard is started by its boot, or closed before it is.
		run(append(slices.Clone(acts), actorSpec{kind: kStart}), true)
		if slices.ContainsFunc(acts, func(a actorSpec) bool { return a.kind == kClose }) {
			run(acts, true)
		}
		if len(acts) == maxActors {
			return
		}
		for i := from; i < len(templates); i++ {
			walk(i, append(acts, templates[i]))
		}
	}
	walk(0, nil)
	t.Logf("%d scenarios, %d states", scenarios, states)
}

const (
	maxActors = 4
	maxEvents = 8
)

type actorKind uint8

const (
	kOp    actorKind = iota // an admitted op: arrive, then its bracket's end
	kSide                   // side work: arrive, then its bracket's end
	kHold                   // Hold (and its bracket on a free machine), then Resume or Retire as side work
	kClose                  // Close
	kStart                  // a detached shard's boot: Start
)

type actorSpec struct {
	kind   actorKind
	tenant int  // kOp
	cancel bool // kOp: its caller stops waiting
	retire bool // kHold: Retire, not Resume
}

func (a actorSpec) String() string {
	switch a.kind {
	case kOp:
		if a.cancel {
			return fmt.Sprintf("op of tenant %d that stops waiting", a.tenant)
		}
		return fmt.Sprintf("op of tenant %d", a.tenant)
	case kHold:
		if a.retire {
			return "Hold, Retire"
		}
		return "Hold, Resume"
	}
	return [...]string{kSide: "side work", kClose: "Close", kStart: "Start"}[a.kind]
}

var templates = []actorSpec{
	{kind: kOp, tenant: 0},
	{kind: kOp, tenant: 1},
	{kind: kOp, tenant: 0, cancel: true},
	{kind: kSide},
	{kind: kHold},
	{kind: kHold, retire: true},
	{kind: kClose},
}

// events counts the gate calls and cancellations a scenario's actors make
// at most.
func events(acts []actorSpec) (n int) {
	for _, a := range acts {
		switch a.kind {
		case kOp, kSide:
			n += 2
			if a.cancel {
				n++
			}
		case kHold:
			n += 4
		default:
			n++
		}
	}
	return n
}

// Where an actor is.
const (
	stReady   = iota // its next script step is a gate call
	stWaiting        // parked on its turn
	stBracket        // it has the machine
	stDone
)

type actorState struct {
	pc, st    uint8
	cancelled bool
	seq       int    // arrival order
	expect    uint64 // the queue-wait start replay would log
	pending   bool   // expect is the clock at the next bracket end
}

var errMoved = errors.New("moved")

// world is the gate and the shell around it, in one state of a scenario.
type world struct {
	g     gate[int] // a waiter is its actor's index + 1
	lanes [2]*lane[int]
	spec  []actorSpec
	holds []*Hold
	acts  []actorState
	// The shell: the lock's write side, the waiter a turn is on its way to,
	// the actor in a bracket (index + 1), the shard clock.
	rmu               bool
	inFlight, bracket int
	clock             uint64
	// What the spec says the shard is: booting, held (holder index + 1),
	// retired with, down; arrivals so far; per tenant, the tenants it owes a
	// turn to before it is served again.
	boot    bool
	held    int
	retired error
	closing bool
	down    bool
	arrived int
	owes    [2]uint8
}

func explore(t *testing.T, spec []actorSpec, boot bool) int {
	w := &world{spec: spec, boot: boot, lanes: [2]*lane[int]{{}, {}}, acts: make([]actorState, len(spec))}
	w.holds = make([]*Hold, len(spec))
	for i := range w.holds {
		w.holds[i] = &Hold{}
	}
	if boot {
		w.g.mach, w.rmu = machBoot, true
	}
	seen := map[string]bool{}
	var dfs func(w *world, path []string)
	dfs = func(w *world, path []string) {
		moves := w.moves()
		if len(moves) == 0 {
			if err := w.terminal(); err != nil {
				t.Fatalf("%s\n%s: %v", scenarioName(spec, boot), strings.Join(path, "\n"), err)
			}
			return
		}
		for _, m := range moves {
			c := w.clone()
			err := c.do(m)
			if err == nil {
				err = c.check()
			}
			p := append(slices.Clip(path), c.describe(m))
			if err != nil {
				t.Fatalf("%s\n%s: %v", scenarioName(spec, boot), strings.Join(p, "\n"), err)
			}
			if k := c.key(); !seen[k] {
				seen[k] = true
				dfs(c, p)
			}
		}
	}
	dfs(w, nil)
	return len(seen)
}

func scenarioName(spec []actorSpec, boot bool) string {
	names := make([]string, len(spec))
	for i, a := range spec {
		names[i] = a.String()
	}
	return fmt.Sprintf("scenario [%s] (detached %v)", strings.Join(names, "; "), boot)
}

// A move is an actor's next step: its script's gate call, receiving its
// turn, stopping to wait, or ending its bracket.
type move struct {
	actor int
	what  uint8
}

const (
	mNext = iota
	mRecv
	mCancel
	mEnd
)

func (w *world) moves() (ms []move) {
	for i, a := range w.acts {
		switch a.st {
		case stReady:
			ms = append(ms, move{i, mNext})
		case stWaiting:
			if w.inFlight == i+1 {
				ms = append(ms, move{i, mRecv})
			}
			if w.spec[i].cancel && !a.cancelled {
				ms = append(ms, move{i, mCancel})
			}
		case stBracket:
			ms = append(ms, move{i, mEnd})
		}
	}
	return ms
}

func (w *world) describe(m move) string {
	what := [...]string{"calls the gate", "receives its turn", "stops waiting", "ends its bracket"}[m.what]
	return fmt.Sprintf("  %d (%v) %s", m.actor, w.spec[m.actor], what)
}

func (w *world) mk(i int) func() int { return func() int { return i + 1 } }

// isSide reports whether actor i is side work: a Hold's release is.
func (w *world) isSide(i int) bool {
	return w.spec[i].kind == kSide || w.spec[i].kind == kHold && w.acts[i].pc == 1
}

// idle reports whether no bracket has the machine or is about to.
func (w *world) idle() bool { return w.bracket == 0 && w.inFlight == 0 && !w.boot }

func (w *world) do(m move) error {
	i, a, sp := m.actor, &w.acts[m.actor], w.spec[m.actor]
	switch m.what {
	case mCancel:
		a.cancelled = true
		return nil
	case mRecv:
		w.inFlight = 0
		if a.cancelled && !lateTurn(a.expect) {
			return errors.New("a waiter that stopped waiting did not run at its turn")
		}
		return w.enter(i)
	case mEnd:
		w.bracket = 0
		switch {
		case sp.kind == kHold && a.pc == 1:
			var err error
			if sp.retire {
				err = errMoved
			}
			if w.held == i+1 {
				w.held = 0
				if err != nil {
					w.retired = err
				}
			}
			w.g.release(w.holds[i], err)
		case sp.kind != kHold: // a hold's or a release's bracket does no work
			w.clock++
		}
		a.st = stDone
		if sp.kind == kHold && a.pc == 0 {
			a.st, a.pc = stReady, 1
		}
		w.resolve()
		return w.carry(i, w.g.end(w.clock))
	}
	switch {
	case sp.kind == kOp || w.isSide(i):
		var ln *lane[int]
		if sp.kind == kOp {
			ln = w.lanes[sp.tenant]
		}
		w.arrived++
		a.seq, a.expect, a.pending = w.arrived, w.clock, !w.idle()
		v := w.g.arrive(ln, w.mk(i))
		if err := w.carry(i, v); err != nil {
			return err
		}
		if refuse := w.down || sp.kind == kOp && w.closing; refuse != (v.err != nil) {
			return fmt.Errorf("arrival answered %v, want refused %v", v.err, refuse)
		}
		switch {
		case v.err != nil:
			if !errors.Is(v.err, ErrDraining) {
				return fmt.Errorf("arrival refused with %v", v.err)
			}
			a.st = stDone
		case v.wait != 0:
			if v.wait != i+1 {
				return fmt.Errorf("arrival waits on turn %d", v.wait)
			}
			a.st = stWaiting
		default:
			if err := w.enter(i); err != nil {
				return err
			}
			return w.admitted(i, w.clock)
		}
	case sp.kind == kHold:
		want := error(nil)
		switch {
		case w.down:
			want = ErrDraining
		case w.retired != nil:
			want = w.retired
		case w.held != 0:
			want = ErrHeld
		}
		v := w.g.hold(w.holds[i])
		if v.err != want {
			return fmt.Errorf("Hold answered %v, want %v", v.err, want)
		}
		if v.err == nil {
			w.held = i + 1
		}
		if err := w.carry(i, v); err != nil {
			return err
		}
		a.pc = 1
		if v.lock {
			a.pc = 0 // its bracket ends first
			return w.enter(i)
		}
		return nil
	case sp.kind == kClose:
		w.closing = true
		wasBoot := w.boot
		if w.boot {
			w.boot, w.retired = false, ErrDraining
		}
		v := w.g.close(w.mk(i))
		a.st = stDone
		if v.wait != 0 {
			a.st = stWaiting
		}
		if wasBoot {
			w.resolve()
		}
		if err := w.carry(i, v); err != nil {
			return err
		}
		if v.lock || (v.wait == 0 && !w.down) {
			w.down = true // Close took a free machine for good
		}
		return w.downCheck()
	case sp.kind == kStart:
		if w.boot {
			w.clock++ // what the boot replayed
			w.boot = false
			w.resolve()
		}
		a.st = stDone
		return w.carry(i, w.g.start(w.clock))
	}
	return nil
}

// resolve gives the ops that arrived while a bracket had the machine the
// clock of that bracket's end.
func (w *world) resolve() {
	for i := range w.acts {
		if a := &w.acts[i]; a.pending && a.st == stWaiting {
			a.expect, a.pending = w.clock, false
		}
	}
}

// enter opens actor i's bracket, after a take or its turn.
func (w *world) enter(i int) error {
	if w.bracket != 0 {
		return fmt.Errorf("actor %d's bracket opened inside actor %d's", i, w.bracket-1)
	}
	w.bracket, w.acts[i].st = i+1, stBracket
	return nil
}

// admitted checks that the gate gave actor i the machine, taken at once or
// handed on with enq, in the order the spec allows.
func (w *world) admitted(i int, enq uint64) error {
	sp, a := w.spec[i], &w.acts[i]
	for j, b := range w.acts {
		if j == i || b.st != stWaiting {
			continue
		}
		bs := w.spec[j]
		switch {
		case sp.kind == kOp && w.isSide(j):
			return fmt.Errorf("op %d admitted while side work %d waits", i, j)
		case b.seq < a.seq && (w.isSide(i) && w.isSide(j) || sp.kind == kOp && bs.kind == kOp && bs.tenant == sp.tenant):
			return fmt.Errorf("actor %d admitted ahead of actor %d, which arrived first", i, j)
		}
	}
	if sp.kind != kOp {
		return nil
	}
	if w.held != 0 {
		return fmt.Errorf("op %d admitted under a hold", i)
	}
	if enq != a.expect {
		return fmt.Errorf("op %d stamped %d, replay would log a wait from %d", i, enq, a.expect)
	}
	for u := range w.owes {
		w.owes[u] &^= 1 << sp.tenant
	}
	if w.owes[sp.tenant] != 0 {
		return fmt.Errorf("tenant %d served twice while tenant set %b waits", sp.tenant, w.owes[sp.tenant])
	}
	for j, b := range w.acts {
		if j != i && b.st == stWaiting && w.spec[j].kind == kOp && w.spec[j].tenant != sp.tenant {
			w.owes[sp.tenant] |= 1 << w.spec[j].tenant
		}
	}
	return nil
}

// carry does what verdict v asks of the shell for caller i.
func (w *world) carry(i int, v verdict[int]) error {
	if v.lock {
		if w.rmu {
			return errors.New("a take locks a machine that is locked")
		}
		w.rmu = true
	}
	if v.unlock {
		if !w.rmu {
			return errors.New("the machine is unlocked twice")
		}
		w.rmu = false
	}
	if len(v.closers) > 0 {
		for _, c := range v.closers {
			if w.acts[c-1].st != stWaiting || w.spec[c-1].kind != kClose {
				return fmt.Errorf("turn %d answered as a Close's", c)
			}
			w.acts[c-1].st = stDone
		}
		w.down = true
		if err := w.downCheck(); err != nil {
			return err
		}
	}
	if v.to != 0 {
		j := v.to - 1
		if w.inFlight != 0 || w.bracket != 0 || w.acts[j].st != stWaiting {
			return fmt.Errorf("machine handed to actor %d while it is taken, or to no waiter", j)
		}
		w.inFlight = v.to
		return w.admitted(j, v.enq)
	}
	return nil
}

// downCheck: once the machine is down, Close has answered every waiter.
func (w *world) downCheck() error {
	if !w.down {
		return nil
	}
	for j, b := range w.acts {
		if b.st == stWaiting || b.st == stBracket {
			return fmt.Errorf("the machine went down with actor %d still stWaiting or in a bracket", j)
		}
	}
	return nil
}

// check asserts the invariants that hold between any two steps.
func (w *world) check() error {
	if w.bracket != 0 && w.inFlight != 0 {
		return errors.New("a bracket is open while the machine is on its way to another")
	}
	owned := w.bracket != 0 || w.inFlight != 0 || w.boot || w.down
	if w.rmu != (owned || w.held != 0) {
		return fmt.Errorf("machine lock write-held %v, with the machine owned %v and held %v", w.rmu, owned, w.held != 0)
	}
	if owned {
		return nil
	}
	ops := 0
	for j, b := range w.acts {
		if b.st == stWaiting && w.spec[j].kind == kOp {
			ops++
		}
	}
	for j, b := range w.acts {
		if b.st != stWaiting {
			continue
		}
		switch k := w.spec[j].kind; {
		case w.isSide(j):
			return fmt.Errorf("side work %d waits on a free machine", j)
		case w.held == 0:
			return fmt.Errorf("actor %d waits on a free machine no hold keeps", j)
		case k == kClose && ops == 0:
			return fmt.Errorf("Close %d waits on a held machine no op waits for", j)
		}
	}
	return nil
}

func (w *world) terminal() error {
	for j, b := range w.acts {
		if b.st != stDone {
			return fmt.Errorf("no one can move, and actor %d is not stDone", j)
		}
	}
	return nil
}

// lateTurn hands enq to a waiter that stopped waiting, through the shell's
// await, and reports whether the goroutine await left took the turn.
func lateTurn(enq uint64) bool {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	turn, ran := make(chan uint64, 1), make(chan uint64, 1)
	if _, err := await(ctx, &deadlineTimer{}, turn, func(e uint64) { ran <- e }); err == nil {
		return false
	}
	turn <- enq
	select {
	case e := <-ran:
		return e == enq
	case <-time.After(time.Second):
		return false
	}
}

func (w *world) clone() *world {
	c := *w
	c.acts = slices.Clone(w.acts)
	c.lanes = [2]*lane[int]{{}, {}}
	re := func(ln *lane[int]) *lane[int] {
		if ln == nil {
			return nil
		}
		return c.lanes[slices.Index(w.lanes[:], ln)]
	}
	rewait := func(s []waiter[int]) []waiter[int] {
		s = slices.Clone(s)
		for i := range s {
			s[i].ln = re(s[i].ln)
		}
		return s
	}
	for i, ln := range w.lanes {
		c.lanes[i].s, c.lanes[i].head = rewait(ln.s), ln.head
	}
	c.g.arrivals = rewait(w.g.arrivals)
	c.g.q.ready.s = slices.Clone(w.g.q.ready.s)
	for i, ln := range c.g.q.ready.s {
		c.g.q.ready.s[i] = re(ln)
	}
	c.g.sides.s = slices.Clone(w.g.sides.s)
	c.g.closers = slices.Clone(w.g.closers)
	return &c
}

// key encodes the state, gate and shell, for the search's seen set.
func (w *world) key() string {
	b := make([]byte, 0, 128)
	u := func(vs ...uint64) {
		for _, v := range vs {
			b = binary.AppendUvarint(b, v)
		}
	}
	flag := func(f bool) uint64 {
		if f {
			return 1
		}
		return 0
	}
	g := &w.g
	holder := slices.Index(w.holds, g.holder) + 1
	u(uint64(g.mach), uint64(holder), flag(g.retired != nil), flag(g.draining), g.now, uint64(len(g.arrivals)))
	for _, a := range g.arrivals {
		u(uint64(a.w), uint64(slices.Index(w.lanes[:], a.ln)))
	}
	u(uint64(g.q.ready.len()))
	for _, ln := range g.q.ready.s[g.q.ready.head:] {
		u(uint64(slices.Index(w.lanes[:], ln)), uint64(ln.len()))
		for _, a := range ln.s[ln.head:] {
			u(uint64(a.w), a.enq)
		}
	}
	u(uint64(g.sides.len()))
	for _, s := range g.sides.s[g.sides.head:] {
		u(uint64(s))
	}
	u(uint64(len(g.closers)))
	for _, s := range g.closers {
		u(uint64(s))
	}
	u(flag(w.rmu), uint64(w.inFlight), uint64(w.bracket), w.clock, flag(w.boot), uint64(w.held),
		flag(w.retired != nil), flag(w.closing), flag(w.down), uint64(w.arrived), uint64(w.owes[0]), uint64(w.owes[1]))
	for _, a := range w.acts {
		u(uint64(a.pc), uint64(a.st), flag(a.cancelled), uint64(a.seq), a.expect, flag(a.pending))
	}
	return string(b)
}
