package server

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"fsencr/internal/fsproto"
	"fsencr/internal/kernel"
)

// within fails the test unless fn returns inside two seconds: every step of
// the hold protocol is supposed to be prompt.
func within(t *testing.T, what string, fn func()) {
	t.Helper()
	done := make(chan struct{})
	go func() { fn(); close(done) }()
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatalf("%s did not return", what)
	}
}

// owner reads the gate's holder in a bracket.
func owner(t *testing.T, sh *Shard) (h *Hold) {
	t.Helper()
	if err := sh.DoSide(context.Background(), func() { h = sh.gate.holder }); err != nil {
		t.Fatalf("DoSide: %v", err)
	}
	return h
}

func noop() (any, error) { return nil, nil }

// readLockFree reports whether a fast reader would get the read lock now.
func readLockFree(sh *Shard) bool {
	if !sh.rmu.TryRLock() {
		return false
	}
	sh.rmu.RUnlock()
	return true
}

// TestHoldProtocol covers Hold as a state of the machine lock: who owns the
// shard, what runs under a hold, and how every way out of one leaves the
// shard.
func TestHoldProtocol(t *testing.T) {
	bg := context.Background()

	t.Run("behind a busy bracket", func(t *testing.T) {
		sh := testShard(t, 0)
		gate, parked := make(chan struct{}), make(chan struct{})
		go sh.Do(bg, 9, func() (any, error) { close(parked); <-gate; return nil, nil })
		<-parked
		// The take does not wait: the open bracket is the last op before the
		// hold, and an op sent now waits for the release.
		h, err := sh.Hold(bg)
		if err != nil {
			t.Fatalf("Hold behind a busy bracket: %v", err)
		}
		var ran atomic.Bool
		done := make(chan error, 1)
		go func() {
			_, err := sh.Do(bg, 1, func() (any, error) { ran.Store(true); return nil, nil })
			done <- err
		}()
		waitQueued(t, sh, 1, 0)
		close(gate)
		within(t, "side work once the busy bracket ended", func() {
			if err := sh.DoSide(bg, func() {}); err != nil {
				t.Errorf("DoSide under a hold: %v", err)
			}
		})
		if ran.Load() || readLockFree(sh) {
			t.Fatalf("under a hold taken behind a busy bracket: op ran %v, read lock free %v", ran.Load(), readLockFree(sh))
		}
		h.Resume()
		if err := <-done; err != nil || !ran.Load() {
			t.Fatalf("op after Resume: %v, ran %v", err, ran.Load())
		}
	})

	t.Run("one owner", func(t *testing.T) {
		sh := testShard(t, 0)
		h, err := sh.Hold(bg)
		if err != nil {
			t.Fatalf("Hold: %v", err)
		}
		if _, err := sh.Hold(bg); !errors.Is(err, ErrHeld) {
			t.Fatalf("second Hold: %v, want ErrHeld", err)
		}
		// The release of a hold that never won the shard may not free the
		// live holder.
		(&Hold{sh: sh}).release(nil)
		if got := owner(t, sh); got != h {
			t.Fatalf("shard owned by %p, want the first hold %p", got, h)
		}
		if _, err := sh.Hold(bg); !errors.Is(err, ErrHeld) {
			t.Fatalf("third Hold: %v, want ErrHeld", err)
		}
		h.Resume()
	})

	t.Run("what runs under a hold", func(t *testing.T) {
		sh := testShard(t, 0)
		h, err := sh.Hold(bg)
		if err != nil {
			t.Fatalf("Hold: %v", err)
		}
		if readLockFree(sh) {
			t.Fatal("under a hold: the read lock was granted, want fast reads refused")
		}
		var ran atomic.Bool
		moved := errors.New("moved")
		res := make(chan error, 1)
		go func() {
			_, err := sh.Do(bg, 1, func() (any, error) { ran.Store(true); return nil, nil })
			res <- err
		}()
		for deadline := time.Now().Add(2 * time.Second); sh.depth.Load() != 1; time.Sleep(time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatal("task never admitted behind the hold")
			}
		}
		// Side work is served — twice, so the worker has been round its loop
		// with the admitted task in reach — and Run is side work.
		for range 2 {
			within(t, "DoSide under a hold", func() {
				if err := sh.DoSide(bg, func() {}); err != nil {
					t.Errorf("DoSide under a hold: %v", err)
				}
			})
		}
		inRun := false
		h.Run(func() { inRun = true })
		if !inRun || ran.Load() {
			t.Fatalf("under a hold: Run ran=%v, admitted task ran=%v; want true, false", inRun, ran.Load())
		}
		// Retire answers what queued behind the hold without executing it.
		h.Retire(moved)
		if err := <-res; !errors.Is(err, moved) || ran.Load() {
			t.Fatalf("queued task after Retire: err %v, ran=%v; want the retire error, unexecuted", err, ran.Load())
		}
		// The retired task was answered inside a mutation bracket; a side
		// task returns only after its own bracket closed.
		within(t, "DoSide after Retire", func() {
			if err := sh.DoSide(bg, func() {}); err != nil {
				t.Errorf("DoSide after Retire: %v", err)
			}
		})
		if !readLockFree(sh) || sh.gate.retired == nil {
			t.Fatal("after Retire: the read lock is still held, or the shard not closed to readers")
		}
	})

	t.Run("resume, stale resume, hold again", func(t *testing.T) {
		sh := testShard(t, 0)
		h1, err := sh.Hold(bg)
		if err != nil {
			t.Fatalf("Hold: %v", err)
		}
		h1.Resume()
		h1.Resume()
		if !readLockFree(sh) {
			t.Fatal("after Resume: fast reads still refused")
		}
		h2, err := sh.Hold(bg)
		if err != nil {
			t.Fatalf("Hold after Resume: %v", err)
		}
		h1.Resume() // stale: h2 owns the shard now
		if got := owner(t, sh); got != h2 {
			t.Fatalf("a stale Resume changed the owner to %p, want %p", got, h2)
		}
		h2.Resume()
		if _, err := sh.Do(bg, 1, noop); err != nil {
			t.Fatalf("Do after Resume: %v", err)
		}
	})

	t.Run("close under a hold", func(t *testing.T) {
		sh := testShard(t, 0)
		h, err := sh.Hold(bg)
		if err != nil {
			t.Fatalf("Hold: %v", err)
		}
		within(t, "Close under a hold with nothing queued", sh.Close)
		ran := false
		within(t, "Run and Resume on a stopped shard", func() {
			h.Run(func() { ran = true })
			h.Resume()
		})
		if ran {
			t.Fatal("Run executed on a stopped shard")
		}
	})
}

// TestHoldRefusedAfterRetire: once a hold retired the shard, a later Hold
// (a FreezeShard that resolved the shard before the migration's commit took
// it out of the owned set) is refused with the retire error, and nothing
// runs under it.
func TestHoldRefusedAfterRetire(t *testing.T) {
	bg := context.Background()
	sh := testShard(t, 0)
	h, err := sh.Hold(bg)
	if err != nil {
		t.Fatalf("Hold: %v", err)
	}
	moved := errors.New("moved")
	h.Retire(moved)
	h2, err := sh.Hold(bg)
	if h2 != nil {
		ran := false
		h2.Run(func() { ran = true })
		h2.Resume()
		t.Fatalf("Hold after Retire won the shard (Run ran %v), want the retire error", ran)
	}
	if !errors.Is(err, moved) {
		t.Fatalf("Hold after Retire: %v, want the retire error", err)
	}
}

// TestRetiredShardServesNoReads: readers that resolved a logged shard before
// its migration keep hammering it across FreezeShard and Commit. From the
// freeze on none of them is served off it — the hold keeps them out, and
// retiring marks the shard closed before its bracket opens again — so no read
// delta is left behind that no log would carry: the source's audit head does
// not move after the freeze.
func TestRetiredShardServesNoReads(t *testing.T) {
	svc, sess := readServiceWith(t, fairLoggedOptions())
	sh := svc.Shards()[0]
	var frozen, stop atomic.Bool
	var served, late, tries atomic.Uint64
	var wg sync.WaitGroup
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			buf := make([]byte, 4096)
			for i := int64(r); !stop.Load(); i++ {
				after := frozen.Load()
				_, ok := sh.tryFast(sess, fsproto.TraceContext{}, fsproto.KindRead, fullName("acme", "hot.dat"), sess.pass, func(sr *kernel.SnapshotReader) (int, error) {
					return sr.ReadAt(buf, i%4*4096)
				})
				if ok {
					served.Add(1)
				}
				if after {
					tries.Add(1)
					if ok {
						late.Add(1)
					}
				}
			}
		}()
	}
	defer func() { stop.Store(true); wg.Wait() }()
	for deadline := time.Now().Add(10 * time.Second); served.Load() == 0; time.Sleep(100 * time.Microsecond) {
		if time.Now().After(deadline) {
			t.Fatal("fast path never served a read")
		}
	}
	mig, err := svc.FreezeShard(context.Background(), 0)
	if err != nil {
		t.Fatal(err)
	}
	frozen.Store(true)
	head := sh.Aud.HeadSeq()
	mig.Commit(1)
	for deadline := time.Now().Add(10 * time.Second); tries.Load() < 1000; time.Sleep(100 * time.Microsecond) {
		if time.Now().After(deadline) {
			t.Fatal("the readers stalled")
		}
	}
	stop.Store(true)
	wg.Wait()
	if n := late.Load(); n != 0 {
		t.Fatalf("%d of %d reads after the freeze were served off the source", n, tries.Load())
	}
	if got := sh.Aud.HeadSeq(); got != head {
		t.Fatalf("the source's audit head moved by %d records after the freeze", got-head)
	}
}

// TestSideWorkFirst pins side work as the first claim on the machine. With
// the machine parked inside an op, one tenant at its slot limit and k of its
// tasks admitted behind that op, a DoSide is not refused as busy, counts in
// no queue depth and runs before any of the k. A Hold taken there does not
// wait: the k tasks wait for its Resume.
func TestSideWorkFirst(t *testing.T) {
	const k = 3
	bg := context.Background()
	sh := testShard(t, k)
	var mu sync.Mutex
	var order []string
	note := func(s string) { mu.Lock(); order = append(order, s); mu.Unlock() }
	var wg sync.WaitGroup
	// park parks the machine inside tenant 99's op and queues k tasks of
	// tenant 1 behind it; the returned func releases the machine.
	park := func() func() {
		release := parkMachine(t, sh, &wg, nil)
		for i := range k {
			wg.Add(1)
			go func() {
				defer wg.Done()
				if _, err := sh.Do(bg, 1, func() (any, error) { note(fmt.Sprint("task ", i)); return nil, nil }); err != nil {
					t.Errorf("task %d: %v", i, err)
				}
			}()
		}
		waitQueued(t, sh, k, 0)
		if d := sh.depth.Load(); d != k+1 {
			t.Fatalf("depth %d, want %d admitted", d, k+1)
		}
		return release
	}

	release := park()
	ctx, cancel := context.WithTimeout(bg, 20*time.Millisecond)
	if _, err := sh.Do(ctx, 1, noop); !errors.Is(err, ErrBusy) {
		t.Fatalf("tenant 1 past its %d slots: %v, want ErrBusy", k, err)
	}
	cancel()
	var depthInSide int64
	side := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(bg, 2*time.Second)
		defer cancel()
		side <- sh.DoSide(ctx, func() { depthInSide = sh.depth.Load(); note("side") })
	}()
	for deadline := time.Now().Add(2 * time.Second); sideWaiting(sh) != 1; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("side work never waited for the machine")
		}
	}
	if d := sh.depth.Load(); d != k+1 {
		t.Fatalf("side work waiting: depth %d, want %d", d, k+1)
	}
	release()
	if err := <-side; err != nil {
		t.Fatalf("DoSide behind a tenant at its slot limit: %v", err)
	}
	wg.Wait()
	if len(order) != k+1 || order[0] != "side" {
		t.Fatalf("ran %q, want the side work before the %d admitted tasks", order, k)
	}
	if depthInSide != k {
		t.Fatalf("side work saw depth %d, want the %d admitted tasks only", depthInSide, k)
	}

	release = park()
	h, err := sh.Hold(bg)
	if err != nil {
		t.Fatalf("Hold behind %d waiting tasks: %v", k, err)
	}
	release()
	within(t, "side work under the hold", func() {
		if err := sh.DoSide(bg, func() {}); err != nil {
			t.Errorf("DoSide under a hold: %v", err)
		}
	})
	if n := waiting(sh); n != k {
		t.Fatalf("under the hold %d tasks wait, want %d", n, k)
	}
	h.Resume()
	within(t, "the waiting tasks after Resume", wg.Wait)
}

// TestHoldKeepsArrivalClock: an op that arrives while a hold keeps the
// machine idle waits from the clock it arrived at, so the side work the hold
// runs before releasing (here 1000 cycles of it) counts in its queue wait.
func TestHoldKeepsArrivalClock(t *testing.T) {
	bg := context.Background()
	sh := testShard(t, 0)
	h, err := sh.Hold(bg)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { _, err := sh.Do(bg, 5, noop); done <- err }()
	waitQueued(t, sh, 1, 0)
	h.Run(func() { sh.Sys.M.Core(0).Now = sh.Sys.M.MaxCoreTime() + 1000 })
	h.Resume()
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if w := sh.Reg.Snapshot().Histograms["server.tenant.g5.queue_wait_cycles"]; w == nil || w.Count != 1 || w.Sum != 1000 {
		t.Fatalf("queue wait %+v, want one wait of 1000 cycles", w)
	}
}
