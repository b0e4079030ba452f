package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
)

// The comparer reads two sets of untraced runs, each a file of --out
// records (one JSON line per run, usually ten seeds per workload), and
// prints one row per workload and end-to-end metric.  It exits 1 when
// any metric worsened by more than its bound or a workload failed more
// often, 0 otherwise.

// Verdicts of one comparison row.
const (
	improved   = "improved"
	same       = "same"
	worse      = "worse"
	unresolved = "unresolved" // spread wider than the bound and the runs overlap
	missing    = "missing"    // the workload has no runs in the new set
)

// row compares one metric of one workload across the two sets.
type row struct {
	workload, metric     string
	old, new             summary
	bound, delta         float64 // delta > 0 is worse, as a share of the old median
	verdict              string
	oldFailed, newFailed float64 // failed ÷ attempted, on fail_frac rows
}

// summary is a metric's median and quartiles over one set's runs.
type summary struct{ p50, q1, q3 float64 }

func summarize(xs []float64) summary {
	q1, q3 := quartiles(xs)
	return summary{median(xs), q1, q3}
}

// spread is the quartile distance as a share of the median.
func (s summary) spread() float64 { return (s.q3 - s.q1) / s.p50 }

func compareMain(args []string, stdout, stderr io.Writer) int {
	if len(args) != 2 {
		fmt.Fprintln(stderr, "usage: bench compare OLD.jsonl NEW.jsonl")
		return 2
	}
	var sets [2][]record
	for i, path := range args {
		recs, err := readRecords(path)
		if err != nil {
			fmt.Fprintf(stderr, "bench compare: %v\n", err)
			return 2
		}
		sets[i] = recs
	}
	rows, regressed := compareSets(sets[0], sets[1])
	if len(rows) == 0 {
		fmt.Fprintln(stderr, "bench compare: the old set has no untraced runs")
		return 2
	}
	printRows(stdout, rows)
	if regressed {
		return 1
	}
	return 0
}

// readRecords reads a file of --out records.
func readRecords(path string) ([]record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var recs []record
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 64<<10), 16<<20)
	for n := 1; sc.Scan(); n++ {
		var rec record
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			return nil, fmt.Errorf("%s:%d: %w", path, n, err)
		}
		recs = append(recs, rec)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return recs, nil
}

// compareSets compares the untraced runs of old and new workload by
// workload, in the old set's workload order, and reports whether any
// row is a regression.
func compareSets(old, new []record) ([]row, bool) {
	oldBy, order := byWorkload(old)
	newBy, _ := byWorkload(new)
	var rows []row
	regressed := false
	for _, wl := range order {
		o, n := oldBy[wl], newBy[wl]
		if len(n) == 0 {
			rows = append(rows, row{workload: wl, metric: "*", verdict: missing})
			regressed = true
			continue
		}
		for _, d := range endToEnd {
			r := compareMetric(d, values(o, d.Name), values(n, d.Name))
			r.workload = wl
			regressed = regressed || r.verdict == worse || r.verdict == missing
			rows = append(rows, r)
		}
		r := row{workload: wl, metric: "fail_frac", oldFailed: failFrac(o), newFailed: failFrac(n), verdict: same}
		if r.newFailed > r.oldFailed {
			r.verdict = worse
			regressed = true
		}
		rows = append(rows, r)
	}
	return rows, regressed
}

// compareMetric classifies one metric.  A change is worse when its
// median is worse than the old by more than the bound, and improved
// when it is better by more than the old runs' own spread with the two
// quartile ranges apart; when either side's spread is wider than the
// bound and the ranges overlap, the runs cannot tell.
func compareMetric(d metricDef, old, new []float64) row {
	r := row{metric: d.Name, bound: d.Bound}
	if len(old) == 0 || len(new) == 0 {
		r.verdict = missing
		return r
	}
	r.old, r.new = summarize(old), summarize(new)
	r.delta = (r.new.p50 - r.old.p50) / r.old.p50
	if d.Better == "higher" {
		r.delta = -r.delta
	}
	overlap := r.new.q1 <= r.old.q3 && r.old.q1 <= r.new.q3
	switch {
	case math.Max(r.old.spread(), r.new.spread()) > d.Bound && overlap:
		r.verdict = unresolved
	case r.delta > d.Bound:
		r.verdict = worse
	case -r.delta > r.old.spread() && !overlap:
		r.verdict = improved
	default:
		r.verdict = same
	}
	return r
}

// byWorkload groups the untraced records by workload, keeping the order
// workloads first appear in.
func byWorkload(recs []record) (map[string][]record, []string) {
	by := map[string][]record{}
	var order []string
	for _, rec := range recs {
		if rec.Trace {
			continue
		}
		if _, seen := by[rec.Workload]; !seen {
			order = append(order, rec.Workload)
		}
		by[rec.Workload] = append(by[rec.Workload], rec)
	}
	return by, order
}

func values(recs []record, metric string) []float64 {
	var xs []float64
	for _, rec := range recs {
		if v, ok := rec.Result.Metrics[metric]; ok {
			xs = append(xs, v.Value)
		}
	}
	return xs
}

func failFrac(recs []record) float64 {
	var failed, attempted int
	for _, rec := range recs {
		failed += rec.Result.Failed
		attempted += rec.Result.Attempted
	}
	if attempted == 0 {
		return 0
	}
	return float64(failed) / float64(attempted)
}

func printRows(w io.Writer, rows []row) {
	sort.SliceStable(rows, func(i, j int) bool { return rows[i].workload < rows[j].workload })
	fmt.Fprintf(w, "%-10s %-12s %30s %30s %8s %6s  %s\n", "workload", "metric", "old p50 [q1, q3]", "new p50 [q1, q3]", "change", "bound", "verdict")
	for _, r := range rows {
		switch r.metric {
		case "*":
			fmt.Fprintf(w, "%-10s %-12s %30s %30s %8s %6s  %s\n", r.workload, r.metric, "", "", "", "", r.verdict)
		case "fail_frac":
			fmt.Fprintf(w, "%-10s %-12s %30.4g %30.4g %8s %6s  %s\n", r.workload, r.metric, r.oldFailed, r.newFailed, "", "+0", r.verdict)
		default:
			fmt.Fprintf(w, "%-10s %-12s %30s %30s %+7.1f%% %5.0f%%  %s\n", r.workload, r.metric,
				r.old.String(), r.new.String(), 100*r.delta, 100*r.bound, r.verdict)
		}
	}
}

func (s summary) String() string { return fmt.Sprintf("%.4g [%.4g, %.4g]", s.p50, s.q1, s.q3) }
