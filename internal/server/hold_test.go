package server

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"
	"time"
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

// owner reads Shard.held on the worker.
func owner(t *testing.T, sh *Shard) (h *Hold) {
	t.Helper()
	if err := sh.DoSide(context.Background(), func() { h = sh.held }); err != nil {
		t.Fatalf("DoSide: %v", err)
	}
	return h
}

func noop() (any, error) { return nil, nil }

// TestHoldProtocol covers Hold as a state of the worker loop: who owns the
// shard, what runs under a hold, and how every way out of one leaves the
// shard.
func TestHoldProtocol(t *testing.T) {
	bg := context.Background()

	t.Run("abandoned behind a busy worker", func(t *testing.T) {
		sh := testShard(t, false, 0)
		gate, parked := make(chan struct{}), make(chan struct{})
		go sh.Do(bg, 9, 0, func() (any, error) { close(parked); <-gate; return nil, nil })
		<-parked
		// The take reaches the lane, the worker does not reach the take.
		ctx, cancel := context.WithTimeout(bg, 20*time.Millisecond)
		defer cancel()
		if _, err := sh.Hold(ctx); !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("Hold behind a busy worker: %v, want deadline exceeded", err)
		}
		close(gate)
		// The take now runs and wins the shard for nobody; the release posted
		// behind it must free it, or this task is never served.
		within(t, "a task after an abandoned hold", func() {
			if _, err := sh.Do(bg, 1, 0, noop); err != nil {
				t.Errorf("Do after an abandoned hold: %v", err)
			}
		})
		h, err := sh.Hold(bg)
		if err != nil {
			t.Fatalf("Hold after an abandoned one: %v", err)
		}
		h.Resume()
	})

	t.Run("one owner", func(t *testing.T) {
		sh := testShard(t, false, 0)
		h, err := sh.Hold(bg)
		if err != nil {
			t.Fatalf("Hold: %v", err)
		}
		if _, err := sh.Hold(bg); !errors.Is(err, ErrHeld) {
			t.Fatalf("second Hold: %v, want ErrHeld", err)
		}
		// Neither the late release of a hold that never won the shard nor an
		// abandoned one's may free the live holder.
		(&Hold{sh: sh}).release(nil)
		gone, cancel := context.WithCancel(bg)
		cancel()
		if _, err := sh.Hold(gone); err == nil {
			t.Fatal("Hold with a cancelled context succeeded")
		}
		if got := owner(t, sh); got != h {
			t.Fatalf("shard owned by %p, want the first hold %p", got, h)
		}
		if _, err := sh.Hold(bg); !errors.Is(err, ErrHeld) {
			t.Fatalf("third Hold: %v, want ErrHeld", err)
		}
		h.Resume()
	})

	t.Run("what runs under a hold", func(t *testing.T) {
		sh := testShard(t, false, 0)
		h, err := sh.Hold(bg)
		if err != nil {
			t.Fatalf("Hold: %v", err)
		}
		if v := sh.ver.Load(); v&1 == 0 || sh.rLock() {
			t.Fatalf("under a hold: version %d, want odd and fast reads refused", v)
		}
		var ran atomic.Bool
		moved := errors.New("moved")
		res := make(chan error, 1)
		go func() {
			_, err := sh.Do(bg, 1, 0, func() (any, error) { ran.Store(true); return nil, nil })
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
		if v := sh.ver.Load(); v&1 != 0 {
			t.Fatalf("after Retire: version %d still odd", v)
		}
	})

	t.Run("resume, stale resume, hold again", func(t *testing.T) {
		sh := testShard(t, true, 0) // the protocol is the same in both disciplines
		h1, err := sh.Hold(bg)
		if err != nil {
			t.Fatalf("Hold: %v", err)
		}
		h1.Resume()
		h1.Resume()
		if sh.rLock() {
			sh.rmu.RUnlock()
		} else {
			t.Fatalf("after Resume: fast reads still refused (version %d)", sh.ver.Load())
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
		if _, err := sh.Do(bg, 1, 0, noop); err != nil {
			t.Fatalf("Do after Resume: %v", err)
		}
	})

	t.Run("close under a hold", func(t *testing.T) {
		sh := testShard(t, false, 0)
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
