package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"time"
)

// quartiles returns the first and third quartile as Python's
// statistics.quantiles(values, n=4) does (the "exclusive" method), which
// is how the driver computes a metric's spread. It needs two values.
func quartiles(values []float64) (q1, q3 float64) {
	s := sortedCopy(values)
	n := len(s)
	at := func(i int) float64 {
		pos := float64(i) * float64(n+1) / 4
		j := int(math.Floor(pos))
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := pos - float64(j)
		return s[j-1]*(1-delta) + s[j]*delta
	}
	return at(1), at(3)
}

// spread is the interquartile distance as a share of the median, 0 for
// fewer than two values.
func spread(values []float64) float64 {
	if len(values) < 2 {
		return 0
	}
	q1, q3 := quartiles(values)
	if m := median(values); m != 0 {
		return math.Abs((q3 - q1) / m)
	}
	return 0
}

// verdict compares the runs of one metric on one workload, old against
// new, by the rule of the choosing-metrics guide (§6.5).
// With symmetric set, a difference in either direction counts: that is
// the A/A check, where neither side is the parent.
func verdict(m metricSpec, old, new []float64, symmetric bool) (string, float64) {
	worse := worseBy(median(old), median(new), m.lowerIsBetter())
	if symmetric {
		worse = math.Abs(worse)
	}
	if math.Max(spread(old), spread(new)) > m.Bound {
		// Too noisy to call, unless every new run beats every old one.
		for _, o := range old {
			for _, n := range new {
				if worseBy(o, n, m.lowerIsBetter()) >= 0 {
					return "unresolved", worse
				}
			}
		}
		return "ok", worse
	}
	if worse > m.Bound {
		return "regressed", worse
	}
	return "ok", worse
}

// byWorkload groups a report's values of one metric by workload, in
// the order workloads first appear.
func byWorkload(rep *report, metric string) (order []string, values map[string][]float64) {
	values = map[string][]float64{}
	for _, r := range rep.Results {
		v, ok := r.Metrics[metric]
		if !ok {
			continue
		}
		if _, seen := values[r.Workload]; !seen {
			order = append(order, r.Workload)
		}
		values[r.Workload] = append(values[r.Workload], v.Value)
	}
	return order, values
}

// compare prints one row per workload × end-to-end metric and reports
// whether any row regressed (or, for the symmetric A/A check, is not ok).
func compare(spec *benchSpec, old, new *report, symmetric bool) bool {
	bad := false
	fmt.Printf("%-16s %-18s %14s %14s %9s %6s  %s\n", "workload", "metric", "old median", "new median", "worse by", "bound", "verdict")
	for _, m := range spec.EndToEnd {
		order, olds := byWorkload(old, m.Name)
		_, news := byWorkload(new, m.Name)
		for _, w := range order {
			if len(news[w]) == 0 {
				continue
			}
			v, worse := verdict(m, olds[w], news[w], symmetric)
			fmt.Printf("%-16s %-18s %14.6g %14.6g %+8.1f%% %5.0f%%  %s (n=%d,%d)\n",
				w, m.Name, median(olds[w]), median(news[w]), worse*100, m.Bound*100, v, len(olds[w]), len(news[w]))
			if v == "regressed" || (symmetric && v != "ok") {
				bad = true
			}
		}
	}
	return bad
}

func readReport(path string) (*report, error) {
	buf, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r report
	if err := json.Unmarshal(buf, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &r, nil
}

// diffFiles applies the bounds to two -out files.
func diffFiles(spec *benchSpec, oldPath, newPath string) error {
	old, err := readReport(oldPath)
	if err != nil {
		return err
	}
	new, err := readReport(newPath)
	if err != nil {
		return err
	}
	if compare(spec, old, new, false) {
		return fmt.Errorf("%s regressed against %s", newPath, oldPath)
	}
	return nil
}

// selfcheck runs the suite twice on the same code, the two sides taking
// turns workload by workload (A B A B …), and fails if any end-to-end
// metric of side B is worse than side A by more than its bound, or if
// any operation failed. served_ap must come out identical.
func (e *env) selfcheck(seed int64, d time.Duration) error {
	var a, b report
	for _, w := range workloads {
		for _, side := range []*report{&a, &b} {
			r, err := e.measure(w, seed, d)
			if err != nil {
				return err
			}
			if !r.Correct {
				printResult(e.spec, r)
				return fmt.Errorf("%s: verification failed", w.name)
			}
			side.Results = append(side.Results, r)
		}
	}
	bad := compare(e.spec, &a, &b, true)
	for i := range a.Results {
		if x, y := a.Results[i].Metrics["served_ap"].Value, b.Results[i].Metrics["served_ap"].Value; x != y {
			fmt.Printf("%s: served_ap differs between the two sides: %v vs %v\n", a.Results[i].Workload, x, y)
			bad = true
		}
	}
	if bad {
		return fmt.Errorf("two runs of the same code disagree by more than the bounds")
	}
	fmt.Println(`{"selfcheck": "ok", "claim": null}`)
	return nil
}
