// Package metrics provides the time-series collection and rendering used
// by the experiment harness: per-round series and fixed-width table
// output that mirrors the data series behind the paper's figures.
package metrics

import (
	"fmt"
	"math"
	"strings"
)

// Series is one named sequence of per-round values (one curve of a
// figure).
type Series struct {
	Name   string
	Values []float64
}

// Append adds a value for the next round.
func (s *Series) Append(v float64) { s.Values = append(s.Values, v) }

// Last returns the most recent value (NaN when empty).
func (s *Series) Last() float64 {
	if len(s.Values) == 0 {
		return math.NaN()
	}
	return s.Values[len(s.Values)-1]
}

// At returns the value at round i (NaN when out of range).
func (s *Series) At(i int) float64 {
	if i < 0 || i >= len(s.Values) {
		return math.NaN()
	}
	return s.Values[i]
}

// FirstRoundBelow returns the first round index whose value is <=
// threshold, or -1.
func (s *Series) FirstRoundBelow(threshold float64) int {
	for i, v := range s.Values {
		if v <= threshold {
			return i
		}
	}
	return -1
}

// Table is a set of series sharing a round axis — the data behind one
// figure.
type Table struct {
	Title  string
	XLabel string
	series []*Series
	index  map[string]*Series
}

// NewTable creates a table.
func NewTable(title, xlabel string) *Table {
	return &Table{Title: title, XLabel: xlabel, index: make(map[string]*Series)}
}

// Series returns (creating if needed) the named series.
func (t *Table) Series(name string) *Series {
	if s, ok := t.index[name]; ok {
		return s
	}
	s := &Series{Name: name}
	t.series = append(t.series, s)
	t.index[name] = s
	return s
}

// Names returns the series names in insertion order.
func (t *Table) Names() []string {
	out := make([]string, len(t.series))
	for i, s := range t.series {
		out[i] = s.Name
	}
	return out
}

// Rows returns the number of rounds (the longest series).
func (t *Table) Rows() int {
	n := 0
	for _, s := range t.series {
		if len(s.Values) > n {
			n = len(s.Values)
		}
	}
	return n
}

// Render prints the table as fixed-width text, one row per round:
//
//	round  liar-hi  liar-lo  honest
//	    0    0.900    0.100   0.400
func (t *Table) Render() string {
	var b strings.Builder
	if t.Title != "" {
		b.WriteString("# ")
		b.WriteString(t.Title)
		b.WriteByte('\n')
	}
	x := t.XLabel
	if x == "" {
		x = "round"
	}
	fmt.Fprintf(&b, "%-6s", x)
	for _, s := range t.series {
		fmt.Fprintf(&b, " %12s", s.Name)
	}
	b.WriteByte('\n')
	for row := 0; row < t.Rows(); row++ {
		fmt.Fprintf(&b, "%-6d", row)
		for _, s := range t.series {
			v := s.At(row)
			if math.IsNaN(v) {
				fmt.Fprintf(&b, " %12s", "-")
			} else {
				fmt.Fprintf(&b, " %12.4f", v)
			}
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// CSV renders the table as comma-separated values with a header row.
func (t *Table) CSV() string {
	var b strings.Builder
	b.WriteString(firstNonEmpty(t.XLabel, "round"))
	for _, s := range t.series {
		b.WriteByte(',')
		b.WriteString(s.Name)
	}
	b.WriteByte('\n')
	for row := 0; row < t.Rows(); row++ {
		fmt.Fprintf(&b, "%d", row)
		for _, s := range t.series {
			v := s.At(row)
			if math.IsNaN(v) {
				b.WriteString(",")
			} else {
				fmt.Fprintf(&b, ",%.6f", v)
			}
		}
		b.WriteByte('\n')
	}
	return b.String()
}

func firstNonEmpty(a, b string) string {
	if a != "" {
		return a
	}
	return b
}
