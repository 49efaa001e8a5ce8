package report

import (
	"strings"
	"testing"
)

func TestBarChartRendering(t *testing.T) {
	c := NewBarChart("demo", "x")
	c.Baseline = 1
	for i, label := range []string{"alpha", "beta"} {
		c.Add(label, float64(i+1))
	}
	out := c.String()
	if !strings.Contains(out, "demo") {
		t.Fatalf("missing title:\n%s", out)
	}
	if !strings.Contains(out, "alpha") || !strings.Contains(out, "beta") {
		t.Fatalf("missing labels:\n%s", out)
	}
	if !strings.Contains(out, "1.000x") || !strings.Contains(out, "2.000x") {
		t.Fatalf("missing values:\n%s", out)
	}
	// Beta's bar should be visibly longer than alpha's.
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	alpha := strings.Count(lines[1], "█")
	beta := strings.Count(lines[2], "█")
	if beta <= alpha {
		t.Fatalf("bar lengths wrong: alpha=%d beta=%d\n%s", alpha, beta, out)
	}
	if !strings.Contains(out, "┊") {
		t.Fatalf("baseline marker missing:\n%s", out)
	}
}

func TestBarChartEmpty(t *testing.T) {
	c := NewBarChart("t", "")
	if !strings.Contains(c.String(), "no data") {
		t.Fatal("empty chart silent")
	}
}

func TestBarChartZeroValues(t *testing.T) {
	c := NewBarChart("t", "")
	const label = "z"
	c.Add(label, 0)
	out := c.String()
	if strings.Contains(out, "█") {
		t.Fatalf("zero value drew a bar:\n%s", out)
	}
}

func TestBarChartClampsOverflow(t *testing.T) {
	c := NewBarChart("t", "")
	c.Width = 10
	const label = "big"
	c.Add(label, 1e9)
	out := c.String()
	if strings.Count(out, "█") != 10 {
		t.Fatalf("overflow not clamped:\n%s", out)
	}
}

func TestSeries(t *testing.T) {
	s := Series("wl", []string{"128KB", "256KB"}, []float64{17.5, 17.4})
	if !strings.Contains(s, "128KB=17.50") || !strings.Contains(s, "256KB=17.40") {
		t.Fatalf("series wrong: %q", s)
	}
}

func TestSpark(t *testing.T) {
	s := Spark([]float64{0, 1, 2, 3})
	if len([]rune(s)) != 4 {
		t.Fatalf("spark length wrong: %q", s)
	}
	if s != "▁▃▆█" && s != "▁▂▅█" && s[0:3] == "" {
		// Allow rounding variation but lowest must be first, highest last.
	}
	r := []rune(s)
	if r[0] != '▁' || r[3] != '█' {
		t.Fatalf("spark extremes wrong: %q", s)
	}
	if Spark(nil) != "" {
		t.Fatal("nil spark not empty")
	}
	if len([]rune(Spark([]float64{5, 5}))) != 2 {
		t.Fatal("flat spark wrong length")
	}
}
