package server

import (
	"context"
	"errors"
	"slices"
	"sync"
	"testing"
	"time"

	"fsencr/internal/config"
	"fsencr/internal/kernel"
	"fsencr/internal/memctrl"
)

func testShard(t *testing.T, det bool, perTenant int) *Shard {
	t.Helper()
	sh := NewShard(0, config.Default(), memctrl.Mode{MemEncryption: true, FileEncryption: true},
		kernel.ModeDAX, det, perTenant, nil)
	t.Cleanup(sh.Close)
	return sh
}

// TestShardDeterministicReorder submits a schedule out of order from many
// goroutines and checks the worker executes it strictly in sequence order.
func TestShardDeterministicReorder(t *testing.T) {
	sh := testShard(t, true, 0)
	const n = 32
	var mu sync.Mutex
	var got []uint64
	var wg sync.WaitGroup
	// Launch in reverse so arrival order fights admission order.
	for i := n - 1; i >= 0; i-- {
		wg.Add(1)
		go func(seq uint64) {
			defer wg.Done()
			_, err := sh.Do(context.Background(), 1, seq, func() (any, error) {
				mu.Lock()
				got = append(got, seq)
				mu.Unlock()
				return nil, nil
			})
			if err != nil {
				t.Errorf("seq %d: %v", seq, err)
			}
		}(uint64(i))
		// Give later sequence numbers a head start at the ingress channel.
		if i == n-1 {
			time.Sleep(10 * time.Millisecond)
		}
	}
	wg.Wait()
	for i, s := range got {
		if s != uint64(i) {
			t.Fatalf("execution order %v: position %d got seq %d", got, i, s)
		}
	}
}

// TestShardFairRoundRobin blocks the worker, queues a burst from tenant A
// and a burst from tenant B, and checks service alternates instead of
// draining A first.
func TestShardFairRoundRobin(t *testing.T) {
	sh := testShard(t, false, 0)
	gate := make(chan struct{})
	done := make(chan struct{})
	go sh.Do(context.Background(), 99, 0, func() (any, error) {
		close(done)
		<-gate
		return nil, nil
	})
	<-done // worker is now parked inside tenant 99's task

	var mu sync.Mutex
	var order []uint32
	var wg sync.WaitGroup
	enqueue := func(tenant uint32, k int) {
		for i := 0; i < k; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				sh.Do(context.Background(), tenant, 0, func() (any, error) {
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
	// Wait until all 8 are admitted (sitting in ingress/queues).
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

// TestShardBackpressure fills one tenant's admission slots and checks the
// next request bounces with ErrBusy once its context expires, while the
// other tenant still gets in.
func TestShardBackpressure(t *testing.T) {
	sh := testShard(t, false, 2)
	gate := make(chan struct{})
	started := make(chan struct{})
	var startedOnce sync.Once
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sh.Do(context.Background(), 1, 0, func() (any, error) {
				startedOnce.Do(func() { close(started) })
				<-gate
				return nil, nil
			})
		}()
	}
	<-started
	// Wait until both requests hold admission slots (one executing, one
	// queued): tenant 1's two slots are now taken.
	deadline := time.Now().Add(2 * time.Second)
	for sh.depth.Load() < 2 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	if _, err := sh.Do(ctx, 1, 0, func() (any, error) { return nil, nil }); !errors.Is(err, ErrBusy) {
		t.Fatalf("tenant 1 third request: want ErrBusy, got %v", err)
	}
	// Tenant 2 is not affected by tenant 1's backpressure (it queues behind
	// the parked worker but is admitted immediately).
	ok := make(chan error, 1)
	go func() {
		_, err := sh.Do(context.Background(), 2, 0, func() (any, error) { return nil, nil })
		ok <- err
	}()
	close(gate)
	wg.Wait()
	if err := <-ok; err != nil {
		t.Fatalf("tenant 2 request failed under tenant 1 backpressure: %v", err)
	}
}

// TestSubmitDeadline pins the three ways submit's deadline ends a call, with
// the caller's context never expiring: *BusyError carrying the queue depth
// while waiting for a tenant slot, the same while waiting for room in a full
// ingress, and context.DeadlineExceeded once admitted — where the task still
// runs at its turn and returns its own slot.
func TestSubmitDeadline(t *testing.T) {
	sh := testShard(t, false, 1) // one slot per tenant, ingress holds 4
	ctx := context.Background()
	soon := func() time.Time { return time.Now().Add(30 * time.Millisecond) }
	noop := func() (any, error) { return nil, nil }

	// Park the worker inside tenant 99's task.
	gate, parked := make(chan struct{}), make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		sh.Do(ctx, 99, 0, func() (any, error) { close(parked); <-gate; return nil, nil })
	}()
	<-parked

	// Admitted, then the deadline: the caller stops waiting, the task stays.
	ran := make(chan struct{})
	_, err := sh.submit(ctx, soon(), task{tenant: 1, fn: func() (any, error) { close(ran); return nil, nil }})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("admitted task past its deadline: %v, want context.DeadlineExceeded", err)
	}

	// Tenant 1's only slot is still held by that task: backpressure.
	var busy *BusyError
	if _, err := sh.submit(ctx, soon(), task{tenant: 1, fn: noop}); !errors.As(err, &busy) || busy.Depth != 2 {
		t.Fatalf("behind a full tenant queue: %v, want *BusyError with depth 2", err)
	}

	// Tenants 2-4 fill the ingress buffer (tenant 1's task holds the fourth
	// place; the parked worker absorbs nothing); tenant 5 gets a slot but no
	// room.
	for tenant := uint32(2); tenant <= 4; tenant++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := sh.Do(ctx, tenant, 0, noop); err != nil {
				t.Errorf("tenant %d: %v", tenant, err)
			}
		}()
	}
	for deadline := time.Now().Add(2 * time.Second); len(sh.ingress) < cap(sh.ingress); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("ingress holds %d of %d", len(sh.ingress), cap(sh.ingress))
		}
	}
	busy = nil
	if _, err := sh.submit(ctx, soon(), task{tenant: 5, fn: noop}); !errors.As(err, &busy) || busy.Depth != 5 {
		t.Fatalf("behind a full ingress: %v, want *BusyError with depth 5", err)
	}

	close(gate)
	wg.Wait()
	select {
	case <-ran:
	case <-time.After(2 * time.Second):
		t.Fatal("the task whose caller timed out never ran")
	}
	// Its slot came back with it: tenant 1 is admitted again, and nothing is
	// left counted as queued.
	if _, err := sh.submit(ctx, time.Now().Add(2*time.Second), task{tenant: 1, fn: noop}); err != nil {
		t.Fatalf("tenant 1 after its timed-out task ran: %v", err)
	}
	// (The worker answers a task before it returns the task's resources.)
	for deadline := time.Now().Add(2 * time.Second); sh.depth.Load() != 0; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("queue depth %d after everything was served", sh.depth.Load())
		}
	}
}

// TestShardDrain checks Close answers every admitted task and subsequent
// submissions get ErrDraining.
func TestShardDrain(t *testing.T) {
	sh := testShard(t, false, 0)
	var served int
	var mu sync.Mutex
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sh.Do(context.Background(), uint32(1+i%3), 0, func() (any, error) {
				mu.Lock()
				served++
				mu.Unlock()
				return nil, nil
			})
		}()
	}
	wg.Wait()
	sh.Close()
	if _, err := sh.Do(context.Background(), 1, 0, func() (any, error) { return nil, nil }); !errors.Is(err, ErrDraining) {
		t.Fatalf("post-Close Do: want ErrDraining, got %v", err)
	}
	if served != 16 {
		t.Fatalf("served %d of 16 before drain", served)
	}
	sh.Close() // idempotent
}

// TestFairQueue drives the fair admission order directly: round-robin over
// the tenants with pending work, a ring that holds exactly those tenants
// however many the shard has seen, and no reference to a task once served.
func TestFairQueue(t *testing.T) {
	var q fairQueue
	noop := func() (any, error) { return nil, nil }
	push := func(ts *tenantState, tenant uint32, seq uint64) {
		q.push(task{tenant: tenant, seq: seq, ts: ts, fn: noop}, 7)
	}
	pop := func() task {
		t.Helper()
		tk, ok := q.pop()
		if !ok {
			t.Fatal("pop: queue empty")
		}
		if tk.enq != 7 {
			t.Fatalf("popped task has enq %d, want the push clock 7", tk.enq)
		}
		return tk
	}
	ring := func() (n int) {
		if q.tail != nil {
			for ts := q.tail.next; ; ts = ts.next {
				if n++; ts == q.tail {
					break
				}
			}
		}
		return n
	}

	ab := map[uint32]*tenantState{1: {}, 2: {}}
	for i, tenant := range []uint32{1, 1, 1, 2, 2} {
		push(ab[tenant], tenant, uint64(i))
	}
	if ring() != 2 {
		t.Fatalf("ring holds %d tenants, want 2", ring())
	}
	var got []uint32
	for range 5 {
		got = append(got, pop().tenant)
	}
	if want := []uint32{1, 2, 1, 2, 1}; !slices.Equal(got, want) {
		t.Fatalf("served %v, want %v", got, want)
	}
	if _, ok := q.pop(); ok || ring() != 0 {
		t.Fatalf("drained queue: pop ok=%v, ring %d", ok, ring())
	}

	// 10 000 tenants seen once each, then idle: the ring tracks tenants with
	// pending work, not tenants seen.
	const seen = 10_000
	tenants := make([]*tenantState, seen)
	for i := range tenants {
		tenants[i] = &tenantState{}
		push(tenants[i], uint32(i), 0)
	}
	for i := range tenants {
		if n := ring(); n != seen-i {
			t.Fatalf("with %d tenants waiting the ring holds %d", seen-i, n)
		}
		if tk := pop(); tk.tenant != uint32(i) {
			t.Fatalf("pop %d served tenant %d", i, tk.tenant)
		}
	}
	hot := tenants[42]
	for s := range uint64(3) {
		push(hot, 42, s)
		if ring() != 1 {
			t.Fatalf("one busy tenant among %d idle: ring %d", seen, ring())
		}
	}
	for s := range uint64(3) {
		if tk := pop(); tk.tenant != 42 || tk.seq != s {
			t.Fatalf("burst pop %d: tenant %d seq %d", s, tk.tenant, tk.seq)
		}
		for i, slot := range hot.q[:cap(hot.q)] {
			if live := i >= hot.head && i < len(hot.q); !live && (slot.fn != nil || slot.ts != nil) {
				t.Fatalf("after pop %d, slot %d still references a served task", s, i)
			}
		}
	}
	if ring() != 0 {
		t.Fatalf("everything served, ring still holds %d", ring())
	}

	// A tenant that never goes idle reuses its served slots instead of
	// growing its FIFO, and stays in order.
	push(hot, 42, 0)
	for s := range uint64(1000) {
		push(hot, 42, s+1)
		if tk := pop(); tk.seq != s {
			t.Fatalf("sustained load: popped seq %d, want %d", tk.seq, s)
		}
	}
	if cap(hot.q) > 8 {
		t.Fatalf("FIFO of a tenant with <= 2 pending grew to cap %d", cap(hot.q))
	}
}

// TestSeqQueue drives the deterministic admission order directly.
func TestSeqQueue(t *testing.T) {
	sh := &Shard{}
	q := &seqQueue{sh: sh, pending: make(map[uint64]task)}
	for _, s := range []uint64{2, 0, 1, 5} {
		q.push(task{seq: s}, 7)
	}
	for want := range uint64(3) {
		tk, ok := q.pop()
		if !ok || tk.seq != want || tk.enq != 0 {
			t.Fatalf("pop: ok=%v seq=%d enq=%d, want seq %d with enq 0", ok, tk.seq, tk.enq, want)
		}
	}
	if tk, ok := q.pop(); ok || sh.detNext != 3 {
		t.Fatalf("gap at 3: popped seq %d (ok=%v), detNext %d", tk.seq, ok, sh.detNext)
	}
	q.push(task{seq: 9}, 7)
	sh.retired = errors.New("moved")
	var flushed []uint64
	for tk, ok := q.pop(); ok; tk, ok = q.pop() {
		flushed = append(flushed, tk.seq)
	}
	slices.Sort(flushed)
	if !slices.Equal(flushed, []uint64{5, 9}) || len(q.pending) != 0 {
		t.Fatalf("retired: flushed %v, %d left parked", flushed, len(q.pending))
	}
}
