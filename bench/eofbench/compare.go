package main

import (
	"fmt"
	"io"
	"math"
)

// compareFiles prints one row per (workload, metric) found in both result
// files: each side's median and quartiles over its runs, the change in the
// median, and a verdict under the metric's BENCHMARK.json bound. It returns
// how many rows are worse.
func compareFiles(parentPath, changePath, specPath string, w io.Writer) (int, error) {
	spec, err := loadSpec(specPath)
	if err != nil {
		return 0, err
	}
	parent, err := loadRecords(parentPath)
	if err != nil {
		return 0, err
	}
	change, err := loadRecords(changePath)
	if err != nil {
		return 0, err
	}
	type metricRule struct {
		name   string
		higher bool
		bound  float64
		gated  bool
	}
	var rules []metricRule
	for _, m := range spec.EndToEnd {
		r := metricRule{name: m.Name, higher: m.Better == "higher"}
		if m.Bound != nil {
			r.bound, r.gated = *m.Bound, true
		}
		rules = append(rules, r)
	}
	for _, m := range spec.PerLayer {
		rules = append(rules, metricRule{name: m.Name, higher: m.Better == "higher"})
	}

	fmt.Fprintf(w, "%-16s %-32s %-44s %-44s %9s  %s\n", "workload", "metric",
		"parent median [q1, q3]", "change median [q1, q3]", "change", "verdict")
	worse := 0
	for _, wl := range workloads {
		for _, rule := range rules {
			p, c := bySeed(parent, wl.name, rule.name), bySeed(change, wl.name, rule.name)
			if len(p) == 0 || len(c) == 0 {
				continue
			}
			pv, cv := values(p), values(c)
			wins, pairs := 0, 0
			for seed, x := range p {
				if y, ok := c[seed]; ok {
					pairs++
					if (y > x) == rule.higher && y != x {
						wins++
					}
				}
			}
			v := "-"
			if rule.gated {
				v = verdict(pv, cv, wins, pairs, rule.bound, rule.higher)
			}
			if v == "worse" {
				worse++
			}
			pm, cm := median(pv), median(cv)
			fmt.Fprintf(w, "%-16s %-32s %-44s %-44s %+8.2f%%  %s\n", wl.name, rule.name,
				spreadCell(pv), spreadCell(cv), 100*ratio(cm-pm, math.Abs(pm)), v)
		}
		pg, cg := goldenOf(parent, wl.name), goldenOf(change, wl.name)
		if pg != "" && cg != "" {
			same := "identical"
			if pg != cg {
				same = "changed"
			}
			fmt.Fprintf(w, "%-16s %-32s %s\n", wl.name, "golden journal", same)
		}
	}
	return worse, nil
}

// verdict applies the benchmark's rule to one metric. It is unresolved when
// the parent's own quartile spread exceeds the bound, unless every change
// run beats every parent run; worse when the median moved the wrong way by
// more than the bound; better when it moved the right way by more than the
// parent's spread and the change won nine in ten seed pairs.
func verdict(p, c []float64, wins, pairs int, bound float64, higher bool) string {
	sign := 1.0
	if !higher {
		sign = -1
	}
	pm, cm := median(p), median(c)
	q1, q3 := quartiles(p)
	scale := math.Abs(pm)
	if scale == 0 {
		scale = 1
	}
	gain, spread := sign*(cm-pm)/scale, (q3-q1)/scale
	if spread > bound {
		for _, x := range p {
			for _, y := range c {
				if sign*(y-x) <= 0 {
					return "unresolved"
				}
			}
		}
		return "better"
	}
	switch {
	case gain < -bound:
		return "worse"
	case gain > 0 && gain > spread && wins*10 >= pairs*9:
		return "better"
	}
	return "unchanged"
}

func spreadCell(xs []float64) string {
	q1, q3 := quartiles(xs)
	return fmt.Sprintf("%.6g [%.6g, %.6g] n=%d", median(xs), q1, q3, len(xs))
}

// bySeed gathers a metric's value per run seed for one workload.
func bySeed(rs []runResult, workload, metric string) map[int64]float64 {
	out := map[int64]float64{}
	for _, r := range rs {
		if v, ok := r.Metrics[metric]; ok && r.Workload == workload {
			out[r.Seed] = v.Value
		}
	}
	return out
}

func values(m map[int64]float64) []float64 {
	out := make([]float64, 0, len(m))
	for _, v := range m {
		out = append(out, v)
	}
	return out
}

func goldenOf(rs []runResult, workload string) string {
	for _, r := range rs {
		if r.Workload == workload && r.GoldenSHA256 != "" {
			return r.GoldenSHA256
		}
	}
	return ""
}
