package server

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"fsencr/internal/config"
	"fsencr/internal/kernel"
	"fsencr/internal/memctrl"
)

func testShard(t *testing.T, perTenant int) *Shard {
	t.Helper()
	sh := NewShardWith(0, config.Default(), memctrl.Mode{MemEncryption: true, FileEncryption: true},
		kernel.ModeDAX, perTenant, nil, ShardOptions{})
	t.Cleanup(sh.Close)
	return sh
}

// TestShardFairRoundRobin parks the machine, queues a burst from tenant A
// and a burst from tenant B, and checks service alternates instead of
// draining A first.
func TestShardFairRoundRobin(t *testing.T) {
	sh := testShard(t, 0)
	gate := make(chan struct{})
	done := make(chan struct{})
	go sh.Do(context.Background(), 99, func() (any, error) {
		close(done)
		<-gate
		return nil, nil
	})
	<-done // the machine is now parked inside tenant 99's task

	var mu sync.Mutex
	var order []uint32
	var wg sync.WaitGroup
	enqueue := func(tenant uint32, k int) {
		for i := 0; i < k; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				sh.Do(context.Background(), tenant, func() (any, error) {
					mu.Lock()
					order = append(order, tenant)
					mu.Unlock()
					return nil, nil
				})
			}()
		}
	}
	enqueue(1, 4)
	enqueue(2, 4)
	// Wait until all 8 are admitted (waiting for the machine).
	deadline := time.Now().Add(2 * time.Second)
	for sh.depth.Load() < 9 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	close(gate)
	wg.Wait()

	// Round-robin must not serve one tenant's whole burst first: within the
	// first half of servings both tenants appear.
	half := order[:len(order)/2]
	seen := map[uint32]bool{}
	for _, tnt := range half {
		seen[tnt] = true
	}
	if !seen[1] || !seen[2] {
		t.Fatalf("first half served only one tenant: %v", order)
	}
}

// TestAnsweredCallerRunsFirst pins the hand-off on one P: task A holds the
// machine while task B is admitted behind it, and once A is done, A's caller
// resumes before B runs: handing the machine on readies B's caller without
// switching to it. The scheduler checks its global queue first on one tick
// in 61, which may hand that round to B, so the test asks for 80 rounds of
// 100.
func TestAnsweredCallerRunsFirst(t *testing.T) {
	first := answeredFirst(t, 1)
	if first < 80 {
		t.Fatalf("the answered caller ran before the next task in %d of 100 rounds, want >= 80", first)
	}
	t.Logf("the answered caller ran first in %d of 100 rounds", first)
}

// TestHandOffYieldsOnManyPs is TestAnsweredCallerRunsFirst on two Ps, where
// the order turns round: once A is done, B's bracket starts before A's
// caller resumes, since the handing goroutine yields its warm P to B and
// continues on the other. The runtime may run A's caller on the other P
// before B's bracket looks, so the test asks for 80 rounds of 100.
func TestHandOffYieldsOnManyPs(t *testing.T) {
	next := 100 - answeredFirst(t, 2)
	if next < 80 {
		t.Fatalf("the next bracket started before the answered caller resumed in %d of 100 rounds, want >= 80", next)
	}
	t.Logf("the next bracket ran first in %d of 100 rounds", next)
}

// answeredFirst runs 100 rounds at GOMAXPROCS(procs) of task A holding the
// machine while task B is admitted behind it, and counts the rounds in which
// A's caller had resumed by the time B's bracket started.
func answeredFirst(t *testing.T, procs int) int {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
	sh := testShard(t, 0)
	ctx := context.Background()
	first := 0
	for r := 0; r < 100; r++ {
		gate, running, aDone, bDone := make(chan struct{}), make(chan struct{}), make(chan struct{}), make(chan struct{})
		var resumed, aFirst atomic.Bool
		go func() {
			defer close(aDone)
			sh.Do(ctx, 1, func() (any, error) {
				close(running)
				<-gate
				return nil, nil
			})
			resumed.Store(true)
		}()
		<-running
		go func() {
			defer close(bDone)
			sh.Do(ctx, 2, func() (any, error) {
				aFirst.Store(resumed.Load())
				return nil, nil
			})
		}()
		for deadline := time.Now().Add(2 * time.Second); sh.depth.Load() < 2; time.Sleep(10 * time.Microsecond) {
			if time.Now().After(deadline) {
				t.Fatal("task B was never admitted")
			}
		}
		close(gate)
		<-aDone
		<-bDone
		if aFirst.Load() {
			first++
		}
	}
	return first
}

// TestShardBackpressure fills one tenant's admission slots and checks the
// next request bounces with ErrBusy once its context expires, while the
// other tenant still gets in.
func TestShardBackpressure(t *testing.T) {
	sh := testShard(t, 2)
	gate := make(chan struct{})
	started := make(chan struct{})
	var startedOnce sync.Once
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sh.Do(context.Background(), 1, func() (any, error) {
				startedOnce.Do(func() { close(started) })
				<-gate
				return nil, nil
			})
		}()
	}
	<-started
	// Wait until both requests hold admission slots (one executing, one
	// waiting): tenant 1's two slots are now taken.
	deadline := time.Now().Add(2 * time.Second)
	for sh.depth.Load() < 2 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	if _, err := sh.Do(ctx, 1, func() (any, error) { return nil, nil }); !errors.Is(err, ErrBusy) {
		t.Fatalf("tenant 1 third request: want ErrBusy, got %v", err)
	}
	// Tenant 2 is not affected by tenant 1's backpressure (it queues behind
	// the parked machine but is admitted immediately).
	ok := make(chan error, 1)
	go func() {
		_, err := sh.Do(context.Background(), 2, func() (any, error) { return nil, nil })
		ok <- err
	}()
	close(gate)
	wg.Wait()
	if err := <-ok; err != nil {
		t.Fatalf("tenant 2 request failed under tenant 1 backpressure: %v", err)
	}
}

// waiting counts the tasks waiting for the machine: the arrivals of the
// open bracket and the fair queue.
func waiting(sh *Shard) int {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	n := len(sh.gate.arrivals)
	for _, ln := range sh.gate.q.ready.s[sh.gate.q.ready.head:] {
		n += ln.len()
	}
	return n
}

// sideWaiting counts the side work waiting for the machine.
func sideWaiting(sh *Shard) int {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	return sh.gate.sides.len()
}

// parkMachine parks the shard's machine inside an op of tenant 99, which
// takes the idle shard's free machine, and returns its release. Until then
// every other op waits for a hand-off. after, if not nil, runs on the same
// goroutine the moment the op returns.
func parkMachine(t *testing.T, sh *Shard, wg *sync.WaitGroup, after func()) (release func()) {
	t.Helper()
	for deadline := time.Now().Add(2 * time.Second); !readLockFree(sh) || waiting(sh) != 0; runtime.Gosched() {
		if time.Now().After(deadline) {
			t.Fatal("the shard never went idle")
		}
	}
	gate, parked := make(chan struct{}), make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		sh.Do(context.Background(), 99, func() (any, error) {
			if waiting(sh) != 0 {
				t.Error("the parking op waited for a hand-off")
			}
			close(parked)
			<-gate
			return nil, nil
		})
		if after != nil {
			after()
		}
	}()
	<-parked
	return func() { close(gate) }
}

// waitQueued waits until n admitted tasks wait for the machine. The last
// argument is ignored: every waiting task parks on its own caller, so no
// subset of them is held anywhere else.
func waitQueued(t *testing.T, sh *Shard, n int64, _ int) {
	t.Helper()
	for deadline := time.Now().Add(2 * time.Second); int64(waiting(sh)) != n; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%d tasks wait for the machine, want %d", waiting(sh), n)
		}
	}
}

// TestSubmitDeadline pins the two ways submit's deadline ends a call, with
// the caller's context never expiring: *BusyError carrying the queue depth
// while waiting for a tenant slot, and context.DeadlineExceeded once
// admitted — where the task still runs at its turn and returns its own slot.
func TestSubmitDeadline(t *testing.T) {
	sh := testShard(t, 1) // one slot per tenant
	ctx := context.Background()
	soon := func() time.Time { return time.Now().Add(30 * time.Millisecond) }
	noop := func() (any, error) { return nil, nil }
	var wg sync.WaitGroup
	release := parkMachine(t, sh, &wg, nil)

	// Admitted, then the deadline: the caller stops waiting, the task stays.
	ran := make(chan struct{})
	_, err := sh.submit(ctx, soon(), task{tenant: 1, fn: func() (any, error) { close(ran); return nil, nil }})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("admitted task past its deadline: %v, want context.DeadlineExceeded", err)
	}
	waitQueued(t, sh, 1, 0)

	// Tenant 1's only slot is still held by that task: backpressure.
	var busy *BusyError
	if _, err := sh.submit(ctx, soon(), task{tenant: 1, fn: noop}); !errors.As(err, &busy) || busy.Depth != 2 {
		t.Fatalf("behind a full tenant queue: %v, want *BusyError with depth 2", err)
	}

	release()
	wg.Wait()
	select {
	case <-ran:
	case <-time.After(2 * time.Second):
		t.Fatal("the task whose caller timed out never ran")
	}
	// Its slot came back with it: tenant 1 is admitted again, and nothing is
	// left waiting.
	if _, err := sh.submit(ctx, time.Now().Add(2*time.Second), task{tenant: 1, fn: noop}); err != nil {
		t.Fatalf("tenant 1 after its timed-out task ran: %v", err)
	}
	if d, w := sh.depth.Load(), waiting(sh); d != 0 || w != 0 {
		t.Fatalf("queue depth %d, %d waiting after everything was served", d, w)
	}
}

// goid is the calling goroutine's number, from its stack header.
func goid() string {
	b := make([]byte, 64)
	return string(bytes.Fields(b[:runtime.Stack(b, false)])[1])
}

// TestIdleShardRunsInline: a lone caller's op never waits for a hand-off. It
// runs on the caller's own goroutine, inside a bracket of its own, and waits
// 0 cycles in the queue.
func TestIdleShardRunsInline(t *testing.T) {
	sh := testShard(t, 0)
	me := goid()
	const ops = 50
	for i := range ops {
		_, err := sh.Do(context.Background(), 1, func() (any, error) {
			if g := goid(); g != me {
				return nil, fmt.Errorf("ran on goroutine %s, the caller is %s", g, me)
			}
			if readLockFree(sh) || waiting(sh) != 0 {
				return nil, errors.New("ran outside its bracket, or after a wait")
			}
			return nil, nil
		})
		if err != nil {
			t.Fatalf("op %d: %v", i, err)
		}
	}
	wait := sh.Reg.Snapshot().Histograms["server.tenant.g1.queue_wait_cycles"]
	if wait == nil || wait.Count != ops || wait.Sum != 0 {
		t.Fatalf("queue wait %+v, want %d observations of 0", wait, ops)
	}
}

// TestInlineNeverJumpsTheQueue: tasks queued behind a parked machine are
// served in fairQueue order, and an op that arrives the moment the machine
// is free again — on the goroutine that just left it, while the worker is
// still waking for the lock — is served after them, never inline ahead of
// them. Tenant 1's late op joins tenant 1's FIFO, or the ring's tail if that
// emptied: last either way.
func TestInlineNeverJumpsTheQueue(t *testing.T) {
	sh := testShard(t, 0)
	ctx := context.Background()
	for round := range 20 {
		var mu sync.Mutex
		var order []string
		note := func(s string) func() (any, error) {
			return func() (any, error) { mu.Lock(); order = append(order, s); mu.Unlock(); return nil, nil }
		}
		var wg sync.WaitGroup
		release := parkMachine(t, sh, &wg, func() { sh.Do(ctx, 1, note("late")) })
		for i, tenant := range []uint32{1, 2, 3} {
			wg.Add(1)
			go func() { defer wg.Done(); sh.Do(ctx, tenant, note(fmt.Sprint(tenant))) }()
			waitQueued(t, sh, int64(i+1), i)
		}
		release()
		wg.Wait()
		if want := []string{"1", "2", "3", "late"}; !slices.Equal(order, want) {
			t.Fatalf("round %d served %q, want %q", round, order, want)
		}
	}
}

// TestDetachedShardRunsNothingInline: until Start, a detached shard (a
// replica during replay, a promoted one between AdoptShard and Start) runs
// no op, inline or otherwise; Start serves what queued, in order.
func TestDetachedShardRunsNothingInline(t *testing.T) {
	sh := NewShardWith(0, config.Default(), memctrl.Mode{MemEncryption: true, FileEncryption: true},
		kernel.ModeDAX, 0, nil, ShardOptions{Detached: true})
	defer func() { sh.Start(); sh.Close() }()
	var mu sync.Mutex
	var order []uint32
	var wg sync.WaitGroup
	for i, tenant := range []uint32{1, 2} {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := sh.Do(context.Background(), tenant, func() (any, error) {
				mu.Lock()
				order = append(order, tenant)
				mu.Unlock()
				return nil, nil
			}); err != nil {
				t.Errorf("tenant %d: %v", tenant, err)
			}
		}()
		waitQueued(t, sh, int64(i+1), i+1)
	}
	time.Sleep(10 * time.Millisecond)
	mu.Lock()
	early := len(order)
	mu.Unlock()
	if early != 0 || readLockFree(sh) {
		t.Fatalf("before Start: %d ops ran, machine lock free %v", early, readLockFree(sh))
	}
	sh.Start()
	wg.Wait()
	if want := []uint32{1, 2}; !slices.Equal(order, want) {
		t.Fatalf("after Start served %v, want %v", order, want)
	}
}

// TestDetachedShardBootsLocked: a detached shard boots with its machine
// lock write-held, so no fast read gets in before Start, and Close of one
// that was never started returns: the op that waited for Start is answered
// ErrDraining without executing, the side work runs.
func TestDetachedShardBootsLocked(t *testing.T) {
	bg := context.Background()
	sh := NewShardWith(0, config.Default(), memctrl.Mode{MemEncryption: true, FileEncryption: true},
		kernel.ModeDAX, 0, nil, ShardOptions{Detached: true})
	if readLockFree(sh) {
		t.Fatal("before Start: the read lock was granted, want fast reads refused")
	}
	var ran atomic.Bool
	op, side := make(chan error, 1), make(chan error, 1)
	go func() {
		_, err := sh.Do(bg, 1, func() (any, error) { ran.Store(true); return nil, nil })
		op <- err
	}()
	go func() { side <- sh.DoSide(bg, func() {}) }()
	for deadline := time.Now().Add(2 * time.Second); waiting(sh) != 1 || sideWaiting(sh) != 1; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("the op and the side work never waited for Start")
		}
	}
	within(t, "Close of a detached shard never started", sh.Close)
	if err := <-op; !errors.Is(err, ErrDraining) || ran.Load() {
		t.Fatalf("op waiting for Start: %v, ran %v; want ErrDraining, not executed", err, ran.Load())
	}
	if err := <-side; err != nil {
		t.Fatalf("side work waiting for Start: %v", err)
	}
	if _, err := sh.Do(bg, 1, noop); !errors.Is(err, ErrDraining) || readLockFree(sh) {
		t.Fatalf("after Close: Do %v, read lock free %v; want ErrDraining, refused", err, readLockFree(sh))
	}
	sh.Start() // the machine is Close's now: no hand-off
}

// TestHandOffRunsOnCaller: what waits for the machine runs on its own
// caller's goroutine once the machine is handed to it, side work first, then
// the ops in fairQueue order: round-robin over their tenants.
func TestHandOffRunsOnCaller(t *testing.T) {
	sh := testShard(t, 0)
	ctx := context.Background()
	var mu sync.Mutex
	var order []string
	var wg sync.WaitGroup
	release := parkMachine(t, sh, &wg, nil)
	// wait starts a caller whose turn notes name, side work or an op of tenant.
	wait := func(name string, tenant uint32, side bool) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			me := goid()
			note := func() {
				if g := goid(); g != me {
					t.Errorf("%s ran on goroutine %s, its caller is %s", name, g, me)
				}
				mu.Lock()
				order = append(order, name)
				mu.Unlock()
			}
			if side {
				_ = sh.DoSide(ctx, note)
			} else {
				_, _ = sh.Do(ctx, tenant, func() (any, error) { note(); return nil, nil })
			}
		}()
	}
	for i, op := range []struct {
		name   string
		tenant uint32
	}{{"1a", 1}, {"1b", 1}, {"2a", 2}} {
		wait(op.name, op.tenant, false)
		waitQueued(t, sh, int64(i+1), 0)
	}
	wait("side", 0, true)
	for deadline := time.Now().Add(2 * time.Second); sideWaiting(sh) != 1; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("side work never waited for the machine")
		}
	}
	release()
	wg.Wait()
	if want := []string{"side", "1a", "2a", "1b"}; !slices.Equal(order, want) {
		t.Fatalf("ran %q, want %q", order, want)
	}
}

// TestShardDrain checks Close answers every admitted task and subsequent
// submissions get ErrDraining.
func TestShardDrain(t *testing.T) {
	sh := testShard(t, 0)
	var served int
	var mu sync.Mutex
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sh.Do(context.Background(), uint32(1+i%3), func() (any, error) {
				mu.Lock()
				served++
				mu.Unlock()
				return nil, nil
			})
		}()
	}
	wg.Wait()
	sh.Close()
	if _, err := sh.Do(context.Background(), 1, func() (any, error) { return nil, nil }); !errors.Is(err, ErrDraining) {
		t.Fatalf("post-Close Do: want ErrDraining, got %v", err)
	}
	if served != 16 {
		t.Fatalf("served %d of 16 before drain", served)
	}
	sh.Close() // idempotent
}

// TestFairQueue drives the fair admission order directly: round-robin over
// the tenants with pending work, a ready list that holds exactly those
// tenants however many the shard has seen, and no reference to a waiter once
// served.
func TestFairQueue(t *testing.T) {
	var q fairQueue[uint64]
	// A waiter is its tag, plus one.
	push := func(ln *lane[uint64], id uint64) { q.push(waiter[uint64]{w: id + 1, ln: ln}, 7) }
	pop := func() waiter[uint64] {
		t.Helper()
		if q.ready.len() == 0 {
			t.Fatal("pop: queue empty")
		}
		a := q.pop()
		if a.enq != 7 {
			t.Fatalf("popped waiter has enq %d, want the push clock 7", a.enq)
		}
		return a
	}

	ab := map[uint32]*lane[uint64]{1: {}, 2: {}}
	tenantOf := map[*lane[uint64]]uint32{ab[1]: 1, ab[2]: 2}
	for i, tenant := range []uint32{1, 1, 1, 2, 2} {
		push(ab[tenant], uint64(i))
	}
	if n := q.ready.len(); n != 2 {
		t.Fatalf("ready holds %d tenants, want 2", n)
	}
	var got []uint32
	for range 5 {
		got = append(got, tenantOf[pop().ln])
	}
	if want := []uint32{1, 2, 1, 2, 1}; !slices.Equal(got, want) {
		t.Fatalf("served %v, want %v", got, want)
	}
	if n := q.ready.len(); n != 0 {
		t.Fatalf("drained queue: ready holds %d", n)
	}

	// 10 000 tenants seen once each, then idle: ready tracks tenants with
	// pending work, not tenants seen.
	const seen = 10_000
	tenants := make([]*lane[uint64], seen)
	for i := range tenants {
		tenants[i] = &lane[uint64]{}
		push(tenants[i], uint64(i))
	}
	for i := range tenants {
		if n := q.ready.len(); n != seen-i {
			t.Fatalf("with %d tenants waiting ready holds %d", seen-i, n)
		}
		if a := pop(); a.ln != tenants[i] {
			t.Fatalf("pop %d served waiter %d", i, a.w-1)
		}
	}
	hot := tenants[42]
	for s := range uint64(3) {
		push(hot, s)
		if n := q.ready.len(); n != 1 {
			t.Fatalf("one busy tenant among %d idle: ready %d", seen, n)
		}
	}
	for s := range uint64(3) {
		if a := pop(); a.ln != hot || a.w != s+1 {
			t.Fatalf("burst pop %d: waiter %d", s, a.w-1)
		}
		for i, slot := range hot.s[:cap(hot.s)] {
			if live := i >= hot.head && i < len(hot.s); !live && (slot.w != 0 || slot.ln != nil) {
				t.Fatalf("after pop %d, slot %d still references a served waiter", s, i)
			}
		}
	}
	if n := q.ready.len(); n != 0 {
		t.Fatalf("everything served, ready still holds %d", n)
	}

	// A tenant that never goes idle reuses its served slots instead of
	// growing its FIFO, and stays in order; so does the ready list.
	push(hot, 0)
	readyCap := cap(q.ready.s)
	for s := range uint64(1000) {
		push(hot, s+1)
		if a := pop(); a.w != s+1 {
			t.Fatalf("sustained load: popped waiter %d, want %d", a.w-1, s)
		}
	}
	if cap(hot.s) > 8 || cap(q.ready.s) != readyCap {
		t.Fatalf("FIFO of a tenant with <= 2 pending grew to cap %d, ready from %d to %d", cap(hot.s), readyCap, cap(q.ready.s))
	}
}
