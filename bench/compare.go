package bench

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strings"
)

// Verdicts of Compare.
const (
	Better     = "better"
	Worse      = "worse"
	Unresolved = "unresolved"
	Same       = "same"
)

// Judge compares a metric's runs on the parent commit (a) with those on
// a change (b), pairing a[i] with b[i]. A gain needs the change to win at
// least nine tenths of the pairs (ties count for neither) and the medians
// to differ by more than the parent's interquartile range. With a bound,
// a median worse by more than bound × the parent's median is a
// regression, unless the parent's own spread is wider than the bound:
// then the metric is unresolved, or unchanged if every run of the change
// reads better than every run of the parent. Without a bound, a loss by
// the same rule as a gain is a regression.
func Judge(a, b []float64, lowerBetter bool, bound float64) string {
	k := min(len(a), len(b))
	if k == 0 {
		return Unresolved
	}
	sign := 1.0 // > 0 where b is worse
	if !lowerBetter {
		sign = -1
	}
	var wins, losses int
	for i := range k {
		switch d := sign * (b[i] - a[i]); {
		case d < 0:
			wins++
		case d > 0:
			losses++
		}
	}
	q1, medA, q3 := Quartiles(a)
	medB := Median(b)
	iqr := q3 - q1
	gap := math.Abs(medB - medA)
	worseBy := sign * (medB - medA)
	switch {
	case 10*wins >= 9*k && gap > iqr && worseBy < 0:
		return Better
	case bound == 0:
		if 10*losses >= 9*k && gap > iqr && worseBy > 0 {
			return Worse
		}
		return Same
	case iqr > bound*math.Abs(medA):
		if allBetter(a, b, sign) {
			return Same
		}
		return Unresolved
	case worseBy > bound*math.Abs(medA):
		return Worse
	}
	return Same
}

// allBetter reports whether every b reads better than every a.
func allBetter(a, b []float64, sign float64) bool {
	worstB, bestA := math.Inf(-1), math.Inf(1)
	for _, x := range b {
		worstB = math.Max(worstB, sign*x)
	}
	for _, x := range a {
		bestA = math.Min(bestA, sign*x)
	}
	return worstB < bestA
}

// ReadResults reads a file of JSON results, one per line (what -out
// appends).
func ReadResults(path string) ([]Result, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []Result
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 64<<10), 16<<20)
	for sc.Scan() {
		if strings.TrimSpace(sc.Text()) == "" {
			continue
		}
		var r Result
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		out = append(out, r)
	}
	return out, sc.Err()
}

// Compare prints, for every workload and metric the parent's results
// (a) hold, the median and quartiles of both sides, the bound and the
// verdict. It returns how many registered end-to-end metrics came out
// worse or unresolved.
func Compare(w io.Writer, a, b []Result) int {
	type group struct {
		workload string
		trace    bool
	}
	byGroup := func(rs []Result) map[group][]Result {
		m := map[group][]Result{}
		for _, r := range rs {
			g := group{r.Workload, r.Trace}
			m[g] = append(m[g], r)
		}
		return m
	}
	ga, gb := byGroup(a), byGroup(b)
	groups := make([]group, 0, len(ga))
	for g := range ga {
		groups = append(groups, g)
	}
	sort.Slice(groups, func(i, j int) bool {
		if groups[i].workload != groups[j].workload {
			return groups[i].workload < groups[j].workload
		}
		return !groups[i].trace && groups[j].trace
	})

	bad := 0
	for _, g := range groups {
		ra, rb := ga[g], gb[g]
		fmt.Fprintf(w, "== %s trace=%v: %d runs vs %d runs\n", g.workload, g.trace, len(ra), len(rb))
		if len(rb) > 0 && ra[0].Host != rb[0].Host {
			fmt.Fprintf(w, "   hosts differ: %+v vs %+v\n", ra[0].Host, rb[0].Host)
		}
		for _, name := range metricNames(ra[0]) {
			va, vb := values(ra, name), values(rb, name)
			meta, registered := metricByName(name)
			lower := meta.Better == "lower"
			if !registered {
				// Extras: throughputs and engine gains are higher-better.
				lower = !strings.Contains(name, "per_s") &&
					!strings.HasSuffix(name, "speedup") && !strings.HasSuffix(name, "efficiency")
			}
			verdict := Judge(va, vb, lower, meta.Bound)
			if meta.Bound > 0 && (verdict == Worse || verdict == Unresolved) {
				bad++
			}
			qa1, ma, qa3 := Quartiles(va)
			qb1, mb, qb3 := Quartiles(vb)
			fmt.Fprintf(w, "   %-34s %12.6g [%.6g %.6g]  %12.6g [%.6g %.6g]  bound %-5g %s\n",
				name, ma, qa1, qa3, mb, qb1, qb3, meta.Bound, verdict)
		}
	}
	return bad
}

// metricNames lists a result's metrics, registered first, then extras.
func metricNames(r Result) []string {
	var out []string
	for _, set := range []map[string]Value{r.Metrics, r.Extra} {
		names := make([]string, 0, len(set))
		for n := range set {
			names = append(names, n)
		}
		sort.Strings(names)
		out = append(out, names...)
	}
	return out
}

// values collects one metric across runs, in file order.
func values(rs []Result, name string) []float64 {
	var out []float64
	for _, r := range rs {
		if v, ok := r.Metrics[name]; ok {
			out = append(out, v.Value)
		} else if v, ok := r.Extra[name]; ok {
			out = append(out, v.Value)
		}
	}
	return out
}
