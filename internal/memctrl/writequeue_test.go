package memctrl

import (
	"math/rand"
	"slices"
	"testing"

	"fsencr/internal/config"
)

// linearQueue is the flat-slice write queue the heap replaced, kept as the
// reference: retire filters the slice, accept scans it for the minimum.
type linearQueue struct {
	q      []config.Cycle
	stalls uint64
}

func (l *linearQueue) retire(now config.Cycle) {
	live := l.q[:0]
	for _, done := range l.q {
		if done > now {
			live = append(live, done)
		}
	}
	l.q = live
}

func (l *linearQueue) accept(now config.Cycle) config.Cycle {
	if len(l.q) < writeQueueDepth {
		return now + 1
	}
	minIdx := 0
	for i, done := range l.q {
		if done < l.q[minIdx] {
			minIdx = i
		}
	}
	accepted := l.q[minIdx]
	l.q[minIdx] = l.q[len(l.q)-1]
	l.q = l.q[:len(l.q)-1]
	l.stalls++
	return accepted + 1
}

// TestWriteQueueMatchesLinearScan drives the controller's heap and the
// linear reference with the same seeded stream of requests — each one
// retire at its arrival, then a run of 1 or 64 lines claiming a slot per
// line and posting its completions, as writeLines/issueWrites do — and
// requires identical accept times, stall counts and surviving multisets
// after every request. Arrival gaps and completion delays are drawn so the
// queue spends time empty, filling, full, and over-full (64..127 entries
// right after a page burst), and completions collide on a coarse grid so
// ties at the minimum are common.
func TestWriteQueueMatchesLinearScan(t *testing.T) {
	c := newMC(Mode{})
	ref := &linearQueue{}
	rng := rand.New(rand.NewSource(19))
	now := config.Cycle(0)
	steps, maxLen, overFull, ties := 0, 0, 0, 0
	var dones [config.LinesPerPage]config.Cycle
	for req := 0; steps < 100_000; req++ {
		// Mostly short gaps (the queue stays busy), sometimes one long
		// enough to drain it.
		switch r := rng.Intn(20); {
		case r == 0:
			now += config.Cycle(5000 + rng.Intn(5000))
		case r < 8:
			// same-cycle arrival
		default:
			now += config.Cycle(rng.Intn(300))
		}
		c.retireWrites(now)
		ref.retire(now)
		steps++

		n := 1
		if rng.Intn(3) == 0 {
			n = config.LinesPerPage
		}
		got, want := c.acceptSlot(now), ref.accept(now)
		for li := 0; ; li++ {
			steps++
			if got != want {
				t.Fatalf("request %d line %d: accept at %d, linear scan says %d", req, li, got, want)
			}
			// Completions land on a 64-cycle grid up to ~4000 cycles out.
			dones[li] = (got/64 + config.Cycle(1+rng.Intn(64))) * 64
			if li == n-1 {
				break
			}
			got, want = c.acceptSlot(got), ref.accept(want)
		}
		for _, d := range dones[:n] {
			c.writeQueue.push(d)
			steps++
		}
		ref.q = append(ref.q, dones[:n]...)

		heap, flat := slices.Clone([]config.Cycle(c.writeQueue)), slices.Clone(ref.q)
		slices.Sort(heap)
		slices.Sort(flat)
		if !slices.Equal(heap, flat) {
			t.Fatalf("request %d: queues diverged\nheap   %v\nlinear %v", req, heap, flat)
		}
		if stalls := c.st.Get("mc.write_queue_stalls"); stalls != ref.stalls {
			t.Fatalf("request %d: %d stalls counted, linear scan says %d", req, stalls, ref.stalls)
		}
		maxLen = max(maxLen, len(flat))
		if len(flat) > writeQueueDepth {
			overFull++
		}
		if len(flat) > 1 && flat[0] == flat[1] {
			ties++
		}
	}
	if ref.stalls == 0 || overFull == 0 || ties == 0 || maxLen < 2*writeQueueDepth-1 {
		t.Fatalf("stream too tame: %d stalls, %d over-full states, %d tied minima, longest queue %d",
			ref.stalls, overFull, ties, maxLen)
	}
	t.Logf("%d steps: %d stalls, %d over-full states, %d tied minima, longest queue %d",
		steps, ref.stalls, overFull, ties, maxLen)
}
