package stats

import (
	"math"
	"strings"
	"testing"
)

func TestSetAddIncGet(t *testing.T) {
	s := NewSet()
	if got := s.Get("missing"); got != 0 {
		t.Fatalf("untouched counter = %d", got)
	}
	a, b := s.Counter("a"), s.Counter("b")
	a.Add(1)
	a.Add(4)
	b.Add(7)
	if s.Get("a") != 5 || s.Get("b") != 7 {
		t.Fatalf("got a=%d b=%d", s.Get("a"), s.Get("b"))
	}
}

func TestSetSnapshotIsolated(t *testing.T) {
	s := NewSet()
	x := s.Counter("x")
	x.Add(1)
	snap := s.Snapshot()
	x.Add(10)
	if snap["x"] != 1 {
		t.Fatalf("snapshot mutated: %d", snap["x"])
	}
}

// A handle that never counted leaves no trace: what a set reports depends
// on the events that happened, not on the handles components resolved.
func TestCounterRegistersAtFirstAdd(t *testing.T) {
	s := NewSet()
	idle, busy := s.Counter("idle"), s.Counter("busy")
	busy.Add(3)
	if snap := s.Snapshot(); len(snap) != 1 || snap["busy"] != 3 {
		t.Fatalf("snapshot = %v, want only busy=3", snap)
	}
	if s.Get("idle") != 0 || s.Get("busy") != 3 {
		t.Fatalf("idle=%d busy=%d", s.Get("idle"), s.Get("busy"))
	}
	idle.Add(0) // a zero delta is still a touch
	if snap := s.Snapshot(); len(snap) != 2 || snap["idle"] != 0 {
		t.Fatalf("snapshot after idle.Add(0) = %v", snap)
	}
}

func TestCounterCopiesShareSlot(t *testing.T) {
	s := NewSet()
	a := s.Counter("x")
	b := a
	again := s.Counter("x")
	a.Add(1)
	b.Add(2)
	again.Add(4)
	if snap := s.Snapshot(); s.Get("x") != 7 || len(snap) != 1 || snap["x"] != 7 {
		t.Fatalf("x=%d snapshot=%v", s.Get("x"), snap)
	}
}

func TestTableRendering(t *testing.T) {
	tb := NewTable("demo", "name", "value")
	tb.AddRow("alpha", 1.5)
	tb.AddRow("b", 2)
	out := tb.String()
	if !strings.Contains(out, "== demo ==") {
		t.Fatalf("missing title:\n%s", out)
	}
	if !strings.Contains(out, "1.500") {
		t.Fatalf("float not formatted:\n%s", out)
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 5 { // title, header, rule, 2 rows
		t.Fatalf("unexpected line count %d:\n%s", len(lines), out)
	}
}

func TestGeoMean(t *testing.T) {
	if g := GeoMean([]float64{2, 8}); math.Abs(g-4) > 1e-9 {
		t.Fatalf("geomean(2,8) = %v", g)
	}
	if g := GeoMean(nil); g != 0 {
		t.Fatalf("geomean(nil) = %v", g)
	}
	if g := GeoMean([]float64{-1, 0}); g != 0 {
		t.Fatalf("geomean of non-positives = %v", g)
	}
}

func TestMean(t *testing.T) {
	if m := Mean([]float64{1, 2, 3}); math.Abs(m-2) > 1e-9 {
		t.Fatalf("mean = %v", m)
	}
	if m := Mean(nil); m != 0 {
		t.Fatalf("mean(nil) = %v", m)
	}
}
