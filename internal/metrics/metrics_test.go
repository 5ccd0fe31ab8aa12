package metrics

import (
	"math"
	"strings"
	"testing"
)

func TestSeriesBasics(t *testing.T) {
	var s Series
	if !math.IsNaN(s.Last()) || !math.IsNaN(s.At(0)) {
		t.Error("empty series should yield NaN")
	}
	s.Append(1)
	s.Append(-0.5)
	if s.Last() != -0.5 || s.At(0) != 1 {
		t.Errorf("series = %+v", s)
	}
	if !math.IsNaN(s.At(5)) || !math.IsNaN(s.At(-1)) {
		t.Error("out-of-range At should be NaN")
	}
}

func TestFirstRoundBelowAbove(t *testing.T) {
	s := Series{Values: []float64{0.5, 0.1, -0.3, -0.7, -0.9}}
	if got := s.FirstRoundBelow(-0.4); got != 3 {
		t.Errorf("FirstRoundBelow = %d, want 3", got)
	}
	if got := s.FirstRoundBelow(-2); got != -1 {
		t.Errorf("FirstRoundBelow(-2) = %d, want -1", got)
	}
}

func TestTableSeriesReuse(t *testing.T) {
	tb := NewTable("t", "round")
	a := tb.Series("a")
	a.Append(1)
	if got := tb.Series("a"); got != a {
		t.Fatal("Series did not return the existing series")
	}
	tb.Series("b").Append(2)
	tb.Series("b").Append(3)
	if tb.Rows() != 2 {
		t.Errorf("Rows = %d, want 2", tb.Rows())
	}
	names := tb.Names()
	if len(names) != 2 || names[0] != "a" || names[1] != "b" {
		t.Errorf("Names = %v", names)
	}
}

func TestRenderAndCSV(t *testing.T) {
	tb := NewTable("My Figure", "round")
	tb.Series("x").Append(0.5)
	tb.Series("x").Append(-0.25)
	tb.Series("y").Append(1)

	out := tb.Render()
	if !strings.Contains(out, "# My Figure") {
		t.Errorf("missing title: %q", out)
	}
	if !strings.Contains(out, "-0.2500") {
		t.Errorf("missing value: %q", out)
	}
	// Ragged series rendered with a dash.
	if !strings.Contains(out, "-\n") && !strings.Contains(out, " -") {
		t.Errorf("missing placeholder for ragged series: %q", out)
	}

	csv := tb.CSV()
	lines := strings.Split(strings.TrimSpace(csv), "\n")
	if lines[0] != "round,x,y" {
		t.Errorf("csv header = %q", lines[0])
	}
	if len(lines) != 3 {
		t.Errorf("csv rows = %d", len(lines))
	}
	if !strings.HasPrefix(lines[2], "1,-0.250000,") {
		t.Errorf("csv ragged row = %q", lines[2])
	}
}
