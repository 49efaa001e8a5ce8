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
	a := s.Counter("a")
	a.Add(1)
	a.Add(4)
	s.Set("b", 7)
	if s.Get("a") != 5 || s.Get("b") != 7 {
		t.Fatalf("got a=%d b=%d", s.Get("a"), s.Get("b"))
	}
}

func TestSetNamesOrder(t *testing.T) {
	s := NewSet()
	z, a := s.Counter("z"), s.Counter("a")
	z.Add(1)
	a.Add(1)
	z.Add(1)
	names := s.Names()
	if len(names) != 2 || names[0] != "z" || names[1] != "a" {
		t.Fatalf("names = %v", names)
	}
}

func TestSetSnapshotIsolated(t *testing.T) {
	s := NewSet()
	s.Set("x", 1)
	snap := s.Snapshot()
	s.Counter("x").Add(10)
	if snap["x"] != 1 {
		t.Fatalf("snapshot mutated: %d", snap["x"])
	}
}

func TestSetReset(t *testing.T) {
	s := NewSet()
	s.Set("x", 9)
	s.Reset()
	if s.Get("x") != 0 {
		t.Fatal("reset did not zero")
	}
	if len(s.Names()) != 1 {
		t.Fatal("reset dropped registry")
	}
}

func TestSetString(t *testing.T) {
	s := NewSet()
	s.Set("beta", 2)
	s.Set("alpha", 1)
	out := s.String()
	if strings.Index(out, "alpha") > strings.Index(out, "beta") {
		t.Fatalf("String not sorted:\n%s", out)
	}
}

// A handle that never counted leaves no trace: what a set reports depends
// on the events that happened, not on the handles components resolved.
func TestCounterRegistersAtFirstAdd(t *testing.T) {
	s := NewSet()
	idle, busy := s.Counter("idle"), s.Counter("busy")
	busy.Add(3)
	if names := s.Names(); len(names) != 1 || names[0] != "busy" {
		t.Fatalf("names = %v, want [busy]", names)
	}
	if _, ok := s.Snapshot()["idle"]; ok {
		t.Fatal("snapshot lists a counter that was never incremented")
	}
	if strings.Contains(s.String(), "idle") {
		t.Fatalf("String lists a counter that was never incremented:\n%s", s)
	}
	if s.Get("idle") != 0 || s.Get("busy") != 3 {
		t.Fatalf("idle=%d busy=%d", s.Get("idle"), s.Get("busy"))
	}
	idle.Add(0) // a zero delta is still a touch, as Set.Add by name was
	if names := s.Names(); len(names) != 2 || names[1] != "idle" {
		t.Fatalf("names after idle.Add(0) = %v", names)
	}
}

// Handles resolved in one order and incremented in another register in
// increment order — the first-touch order the same events gave by name.
func TestCounterFirstTouchOrder(t *testing.T) {
	s := NewSet()
	h := map[string]Counter{}
	for _, name := range []string{"mc.reads", "mc.writes", "mc.meta_hits", "mc.meta_misses", "pcm.reads"} {
		h[name] = s.Counter(name)
	}
	for _, name := range []string{"mc.writes", "mc.meta_misses", "pcm.reads", "mc.writes", "mc.meta_hits", "pcm.reads"} {
		h[name].Add(1)
	}
	s.Set("late", 1)
	want := []string{"mc.writes", "mc.meta_misses", "pcm.reads", "mc.meta_hits", "late"}
	got := s.Names()
	if len(got) != len(want) {
		t.Fatalf("names = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("names = %v, want %v", got, want)
		}
	}
	if s.Get("mc.writes") != 2 || s.Get("pcm.reads") != 2 || s.Get("mc.reads") != 0 {
		t.Fatalf("values: %v", s.Snapshot())
	}
}

func TestCounterSurvivesReset(t *testing.T) {
	s := NewSet()
	c := s.Counter("x")
	c.Add(9)
	s.Reset()
	if s.Get("x") != 0 {
		t.Fatal("reset did not zero through the handle's cell")
	}
	c.Add(2)
	if s.Get("x") != 2 || len(s.Names()) != 1 {
		t.Fatalf("after reset x=%d names=%v", s.Get("x"), s.Names())
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
	if s.Get("x") != 7 || len(s.Names()) != 1 {
		t.Fatalf("x=%d names=%v", s.Get("x"), s.Names())
	}
	s.Set("x", 1)
	b.Add(1)
	if s.Get("x") != 2 {
		t.Fatalf("Set by name and the handle disagree: %d", s.Get("x"))
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
