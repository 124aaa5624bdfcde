package main

import (
	"fmt"
	"io"
	"os"
	"sort"
)

// Verdicts of one workload × metric comparison.
const (
	verdictBetter     = "better"
	verdictSame       = "same"
	verdictWorse      = "worse"
	verdictUnresolved = "unresolved"
)

// side is one file's runs of one metric on one workload.
type side struct {
	values          []float64
	median, q1, q3  float64
	lowest, highest float64
}

func newSide(vs []float64) side {
	s := side{values: vs, median: median(vs)}
	s.q1, s.q3 = quartiles(vs)
	sorted := append([]float64(nil), vs...)
	sort.Float64s(sorted)
	s.lowest, s.highest = sorted[0], sorted[len(sorted)-1]
	return s
}

// judge compares two sides of a metric under its bound: the share of
// the old median by which the new one may be worse. When the spread
// between either side's own runs (quartile distance over the old
// median) exceeds the bound and the two sides' runs overlap, the
// difference cannot be told from noise and the verdict is unresolved.
// A bound of 0 (fail_ratio) and an old median of 0 (modeled I/O on
// nav_hot) leave no share to take: any move off the old median is then
// better or worse by its direction alone.
func judge(d metricDef, old, cur side) (verdict string, change, spread float64) {
	if old.median != 0 {
		change = (cur.median - old.median) / old.median
		spread = max(old.q3-old.q1, cur.q3-cur.q1) / old.median
	}
	if d.Bound == 0 || old.median == 0 {
		moved := cur.median - old.median
		if d.Better == "higher" {
			moved = -moved
		}
		switch {
		case moved > 0:
			return verdictWorse, change, spread
		case moved < 0:
			return verdictBetter, change, spread
		}
		return verdictSame, change, spread
	}
	worse := change
	if d.Better == "higher" {
		worse = -change
	}
	overlap := cur.lowest <= old.highest && old.lowest <= cur.highest
	switch {
	case spread > d.Bound && overlap:
		return verdictUnresolved, change, spread
	case worse > d.Bound:
		return verdictWorse, change, spread
	case -worse > d.Bound:
		return verdictBetter, change, spread
	}
	return verdictSame, change, spread
}

// compareFiles prints, per workload and gated metric, each side's
// median and quartiles and the verdict, and returns how many are worse.
func compareFiles(w io.Writer, old, cur *resultFile) (worse int) {
	for i, r := range old.Runs {
		if i >= len(cur.Runs) || r.Workload != cur.Runs[i].Workload {
			continue
		}
		a, b := r.Inputs, cur.Runs[i].Inputs
		if a.CSRSha256 != b.CSRSha256 || a.WindowSeconds != b.WindowSeconds {
			fmt.Fprintf(w, "warning: run %d (%s) measured different inputs: corpus %.12s over %g s against %.12s over %g s\n",
				i, r.Workload, a.CSRSha256, a.WindowSeconds, b.CSRSha256, b.WindowSeconds)
		}
	}
	so, sc := old.series(), cur.series()
	fmt.Fprintf(w, "%-14s %-22s %12s %24s %12s %24s %8s %7s %7s  %s\n",
		"workload", "metric", "old median", "old quartiles", "new median", "new quartiles", "change", "spread", "bound", "verdict")
	for _, wl := range workloads {
		for _, set := range [][]metricDef{endToEnd, extras} {
			for _, d := range set {
				a, b := so[wl.Name][d.Name], sc[wl.Name][d.Name]
				if len(a) == 0 || len(b) == 0 {
					continue
				}
				o, c := newSide(a), newSide(b)
				verdict, change, spread := judge(d, o, c)
				if verdict == verdictWorse {
					worse++
				}
				fmt.Fprintf(w, "%-14s %-22s %12.4g %24s %12.4g %24s %+7.1f%% %6.1f%% %6.1f%%  %s\n",
					wl.Name, d.Name, o.median, fmt.Sprintf("[%.4g, %.4g]", o.q1, o.q3),
					c.median, fmt.Sprintf("[%.4g, %.4g]", c.q1, c.q3),
					100*change, 100*spread, 100*d.Bound, verdict)
			}
		}
	}
	return worse
}

func compareMain(args []string) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: compare old.json new.json   (result files written by -all, ideally with -runs 3 or more)")
		return 2
	}
	old, err := readResultFile(args[0])
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	cur, err := readResultFile(args[1])
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	if worse := compareFiles(os.Stdout, old, cur); worse > 0 {
		fmt.Printf("%d metric(s) worse than their bound allows\n", worse)
		return 1
	}
	return 0
}
