package telemetry

import (
	"bytes"
	"encoding/json"
	"reflect"
	"strconv"
	"strings"
	"testing"
)

func TestCounterGaugeHistogramBasics(t *testing.T) {
	r := New()
	c := r.Counter("a.hits")
	c.Inc()
	c.Add(4)
	if got := c.Value(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	g := r.Gauge("a.depth")
	g.Set(7)
	g.Set(3)
	if got := g.Value(); got != 3 {
		t.Fatalf("gauge = %d, want 3", got)
	}
	h := r.Histogram("a.lat")
	for _, v := range []uint64{0, 1, 2, 3, 100, 1 << 40} {
		h.Observe(v)
	}
	if got := h.Count(); got != 6 {
		t.Fatalf("hist count = %d, want 6", got)
	}
	s := r.Snapshot()
	hs := s.Histograms["a.lat"]
	if hs.Sum != 0+1+2+3+100+(1<<40) {
		t.Fatalf("hist sum = %d", hs.Sum)
	}
	if hs.Max != 1<<40 {
		t.Fatalf("hist max = %d", hs.Max)
	}
	// v=0 → bucket 0; v=1 → bucket 1; v=2,3 → bucket 2; v=100 → bucket 7.
	if hs.Buckets[0] != 1 || hs.Buckets[1] != 1 || hs.Buckets[2] != 2 || hs.Buckets[7] != 1 || hs.Buckets[41] != 1 {
		t.Fatalf("bucket layout wrong: %v", hs.Buckets)
	}
}

func TestRegistryReturnsSameHandle(t *testing.T) {
	r := New()
	if r.Counter("x") != r.Counter("x") {
		t.Fatal("same name must return the same counter")
	}
	if r.Histogram("y") != r.Histogram("y") {
		t.Fatal("same name must return the same histogram")
	}
}

func TestNilRegistryIsNoop(t *testing.T) {
	var r *Registry
	c := r.Counter("x")
	c.Inc()
	c.Add(10)
	if c.Value() != 0 {
		t.Fatal("nil counter must stay 0")
	}
	g := r.Gauge("y")
	g.Set(5)
	if g.Value() != 0 {
		t.Fatal("nil gauge must stay 0")
	}
	h := r.Histogram("z")
	h.Observe(9)
	if h.Count() != 0 {
		t.Fatal("nil histogram must stay empty")
	}
	r.Span("cat", "name", 0, 10, 0)
	s := r.Snapshot()
	if len(s.Counters) != 0 || len(s.Spans) != 0 || s.Runs != 1 {
		t.Fatalf("nil registry snapshot not empty: %+v", s)
	}
}

func TestBucketBound(t *testing.T) {
	cases := map[int]uint64{0: 0, 1: 1, 2: 3, 3: 7, 10: 1023, 64: ^uint64(0), 70: ^uint64(0)}
	for i, want := range cases {
		if got := BucketBound(i); got != want {
			t.Fatalf("BucketBound(%d) = %d, want %d", i, got, want)
		}
	}
}

func TestSpanRingOverwritesOldest(t *testing.T) {
	r := NewWithSpanCapacity(3)
	for i := 0; i < 5; i++ {
		start := uint64(i * 10)
		r.Span("c", "s"+strconv.Itoa(i), start, start+5, 0)
	}
	s := r.Snapshot()
	if len(s.Spans) != 3 {
		t.Fatalf("retained %d spans, want 3", len(s.Spans))
	}
	if s.SpanDrops != 2 {
		t.Fatalf("drops = %d, want 2", s.SpanDrops)
	}
	// Oldest-first: s2, s3, s4 survive.
	for i, want := range []string{"s2", "s3", "s4"} {
		if s.Spans[i].Name != want {
			t.Fatalf("span[%d] = %q, want %q", i, s.Spans[i].Name, want)
		}
	}
}

func TestMergeDeterministic(t *testing.T) {
	mk := func(seed uint64) *Snapshot {
		r := New()
		r.Counter("hits").Add(seed)
		r.Histogram("lat").Observe(seed * 3)
		r.Span("run", "r", seed, seed+10, int(seed))
		return r.Snapshot()
	}
	parts := []*Snapshot{mk(1), mk(2), mk(3), mk(4)}

	merge := func() []byte {
		agg := NewSnapshot()
		for _, p := range parts {
			agg.Merge(p)
		}
		var buf bytes.Buffer
		if err := agg.WriteJSON(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	a, b := merge(), merge()
	if !bytes.Equal(a, b) {
		t.Fatal("merging the same snapshots in the same order must be byte-identical")
	}

	agg := NewSnapshot()
	for _, p := range parts {
		agg.Merge(p)
	}
	if agg.Counters["hits"] != 10 {
		t.Fatalf("merged counter = %d, want 10", agg.Counters["hits"])
	}
	if agg.Histograms["lat"].Count != 4 || agg.Histograms["lat"].Sum != 30 {
		t.Fatalf("merged hist = %+v", agg.Histograms["lat"])
	}
	if agg.Runs != 4 {
		t.Fatalf("runs = %d, want 4", agg.Runs)
	}
	if len(agg.Spans) != 4 || agg.Spans[0].Start != 1 || agg.Spans[3].Start != 4 {
		t.Fatalf("spans not concatenated in merge order: %+v", agg.Spans)
	}
}

func TestAddCounters(t *testing.T) {
	s := NewSnapshot()
	s.Counters["a"] = 1
	s.AddCounters(map[string]uint64{"a": 2, "b": 5})
	if s.Counters["a"] != 3 || s.Counters["b"] != 5 {
		t.Fatalf("AddCounters wrong: %v", s.Counters)
	}
}

// TestWritePrometheus checks the text exposition output is well formed:
// every histogram has monotonically non-decreasing cumulative buckets
// ending in +Inf == count, and all series names carry the fsencr_ prefix.
func TestWritePrometheus(t *testing.T) {
	r := New()
	r.Counter("mc.ott_hits").Add(12)
	r.Gauge("ott.occupancy").Set(3)
	h := r.Histogram("kvstore.put_cycles")
	for _, v := range []uint64{1, 2, 4, 9, 100} {
		h.Observe(v)
	}
	var buf bytes.Buffer
	if err := r.Snapshot().WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	text := buf.String()

	for _, want := range []string{
		"# TYPE fsencr_mc_ott_hits counter",
		"fsencr_mc_ott_hits 12",
		"# TYPE fsencr_ott_occupancy gauge",
		"fsencr_ott_occupancy 3",
		"# TYPE fsencr_kvstore_put_cycles histogram",
		`fsencr_kvstore_put_cycles_bucket{le="+Inf"} 5`,
		"fsencr_kvstore_put_cycles_sum 116",
		"fsencr_kvstore_put_cycles_count 5",
		// Span-ring loss is always exported, even at zero, so scrapers can
		// alert on it becoming nonzero.
		"# TYPE fsencr_span_drops_total counter",
		"fsencr_span_drops_total 0",
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("prometheus output missing %q:\n%s", want, text)
		}
	}

	// Parse every bucket line: le bounds strictly increasing, cumulative
	// counts non-decreasing.
	var prevLe, prevCum uint64
	var first = true
	var buckets int
	for _, line := range strings.Split(text, "\n") {
		if !strings.HasPrefix(line, "fsencr_kvstore_put_cycles_bucket{le=\"") {
			continue
		}
		buckets++
		rest := strings.TrimPrefix(line, "fsencr_kvstore_put_cycles_bucket{le=\"")
		i := strings.Index(rest, "\"} ")
		if i < 0 {
			t.Fatalf("malformed bucket line %q", line)
		}
		leStr, cntStr := rest[:i], rest[i+3:]
		cum, err := strconv.ParseUint(cntStr, 10, 64)
		if err != nil {
			t.Fatalf("bad bucket count in %q: %v", line, err)
		}
		if leStr != "+Inf" {
			le, err := strconv.ParseUint(leStr, 10, 64)
			if err != nil {
				t.Fatalf("bad le bound in %q: %v", line, err)
			}
			if !first && le <= prevLe {
				t.Fatalf("le bounds not increasing at %q", line)
			}
			prevLe = le
		}
		if cum < prevCum {
			t.Fatalf("cumulative count decreased at %q", line)
		}
		prevCum = cum
		first = false
	}
	if buckets < 2 {
		t.Fatalf("expected multiple bucket lines, got %d", buckets)
	}
}

func TestWriteChromeTrace(t *testing.T) {
	r := New()
	r.Span("memctrl", "reencrypt", 100, 250, 0)
	r.Span("kernel", "page_fault", 10, 30, 1)
	r.Span("kvstore", "put", 40, 90, 1)
	r.Span("run", "fillrandom-s", 0, 1000, 0)
	var buf bytes.Buffer
	if err := r.Snapshot().WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string `json:"name"`
			Cat  string `json:"cat"`
			Ph   string `json:"ph"`
			Ts   uint64 `json:"ts"`
			Dur  uint64 `json:"dur"`
			Pid  int    `json:"pid"`
			Tid  int    `json:"tid"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("chrome trace not valid JSON: %v", err)
	}
	if len(doc.TraceEvents) != 4 {
		t.Fatalf("got %d events, want 4", len(doc.TraceEvents))
	}
	cats := make(map[string]bool)
	for _, ev := range doc.TraceEvents {
		if ev.Ph != "X" {
			t.Fatalf("event phase %q, want X", ev.Ph)
		}
		if ev.Dur == 0 {
			t.Fatal("complete events must have nonzero dur")
		}
		cats[ev.Cat] = true
	}
	if len(cats) != 4 {
		t.Fatalf("got %d categories, want 4: %v", len(cats), cats)
	}
}

func TestWithoutSpans(t *testing.T) {
	r := New()
	r.Counter("c").Inc()
	r.Span("x", "y", 0, 5, 0)
	s := r.Snapshot()
	ws := s.WithoutSpans()
	if len(ws.Spans) != 0 || ws.SpanDrops != 0 {
		t.Fatal("WithoutSpans must drop spans")
	}
	if ws.Counters["c"] != 1 {
		t.Fatal("WithoutSpans must keep metrics")
	}
	if len(s.Spans) != 1 {
		t.Fatal("original snapshot must be untouched")
	}
}

func TestSpanCategories(t *testing.T) {
	r := New()
	r.Span("b", "1", 0, 1, 0)
	r.Span("a", "2", 0, 1, 0)
	r.Span("b", "3", 0, 1, 0)
	got := r.Snapshot().SpanCategories()
	if len(got) != 2 || got[0] != "a" || got[1] != "b" {
		t.Fatalf("SpanCategories = %v", got)
	}
}

// TestBatchAddMatchesObserve: a batch folded in with Add leaves a histogram
// exactly where observing the same values one by one leaves it — v = 0 and
// values in the top bucket included — an empty batch leaves its max alone,
// and a nil histogram ignores a batch.
func TestBatchAddMatchesObserve(t *testing.T) {
	r := New()
	direct, folded := r.Histogram("direct"), r.Histogram("folded")
	for _, vs := range [][]uint64{
		{0, 0, 1, 7, 1 << 20, 3, 0},
		{1<<63 + 5, 2, 1 << 63, ^uint64(0)},
		{9, 4},
	} {
		var b Batch
		for _, v := range vs {
			direct.Observe(v)
			b.Observe(v)
		}
		folded.Add(&b)
	}
	s := r.Snapshot()
	want, got := s.Histograms["direct"], s.Histograms["folded"]
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("folded %+v, observed one by one %+v", got, want)
	}
	if got.Buckets[0] != 3 || got.Buckets[64] != 3 || got.Max != ^uint64(0) {
		t.Fatalf("bucket 0 = %d, bucket 64 = %d, max %d", got.Buckets[0], got.Buckets[64], got.Max)
	}

	folded.Add(&Batch{})
	if after := r.Snapshot().Histograms["folded"]; !reflect.DeepEqual(after, got) {
		t.Fatalf("an empty batch changed the histogram: %+v, was %+v", after, got)
	}

	var nilHist *Histogram
	b := Batch{}
	b.Observe(3)
	nilHist.Add(&b)
	if nilHist.Count() != 0 {
		t.Fatal("nil histogram recorded a batch")
	}
}

func TestDiff(t *testing.T) {
	prev := NewSnapshot()
	prev.Counters["a"] = 10
	prev.Runs = 2
	cur := NewSnapshot()
	cur.Counters["a"] = 15
	cur.Counters["b"] = 3
	cur.Runs = 5
	d := Diff(prev, cur)
	if d.Counters["a"] != 5 || d.Counters["b"] != 3 || d.Runs != 3 {
		t.Fatalf("diff: %+v", d)
	}
	// A reset sink (shrinking counter) clamps to the new absolute value.
	cur.Counters["a"] = 2
	if d := Diff(prev, cur); d.Counters["a"] != 2 {
		t.Fatalf("diff after reset: %+v", d)
	}
	if d := Diff(nil, cur); d.Counters["b"] != 3 {
		t.Fatalf("diff from nil: %+v", d)
	}
}
