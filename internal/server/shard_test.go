package server

import (
	"context"
	"errors"
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
	_, err := sh.submit(ctx, soon(), task{tenant: 1, name: "task", fn: func() (any, error) { close(ran); return nil, nil }})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("admitted task past its deadline: %v, want context.DeadlineExceeded", err)
	}

	// Tenant 1's only slot is still held by that task: backpressure.
	var busy *BusyError
	if _, err := sh.submit(ctx, soon(), task{tenant: 1, name: "task", fn: noop}); !errors.As(err, &busy) || busy.Depth != 2 {
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
	if _, err := sh.submit(ctx, soon(), task{tenant: 5, name: "task", fn: noop}); !errors.As(err, &busy) || busy.Depth != 5 {
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
	if _, err := sh.submit(ctx, time.Now().Add(2*time.Second), task{tenant: 1, name: "task", fn: noop}); err != nil {
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
