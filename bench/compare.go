package main

import (
	"encoding/json"
	"fmt"
	"io"
	"maps"
	"os"
	"slices"
)

// series groups the values each (workload, metric) took across runs.
type series struct {
	workload, metric, unit string
	values                 []float64
}

func collect(runs []*runResult) map[string]*series {
	out := make(map[string]*series)
	for _, r := range runs {
		for name, m := range r.Metrics {
			key := r.Workload + " " + name
			if out[key] == nil {
				out[key] = &series{workload: r.Workload, metric: name, unit: m.Unit}
			}
			out[key].values = append(out[key].values, m.Value)
		}
	}
	return out
}

// summaryRow is one (workload, metric) of a repeated run, boiled down.
type summaryRow struct {
	Workload string  `json:"workload"`
	Metric   string  `json:"metric"`
	Unit     string  `json:"unit"`
	Median   float64 `json:"median"`
	Q1       float64 `json:"q1"`
	Q3       float64 `json:"q3"`
	// Spread is (Q3-Q1)/Median: what the contract holds against the bound.
	Spread float64 `json:"spread"`
	Runs   int     `json:"runs"`
}

func summarize(runs []*runResult) []summaryRow {
	all := collect(runs)
	var rows []summaryRow
	for _, key := range slices.Sorted(maps.Keys(all)) {
		s := all[key]
		q1, q3 := quartiles(s.values)
		rows = append(rows, summaryRow{s.workload, s.metric, s.unit, median(s.values), q1, q3, spread(s.values), len(s.values)})
	}
	return rows
}

// printSummary prints median, quartiles and spread per metric over the
// rounds of a -repeat invocation.
func printSummary(w io.Writer, runs []*runResult) {
	fmt.Fprintln(w, "summary: workload metric median q1 q3 spread unit n")
	for _, r := range summarize(runs) {
		fmt.Fprintf(w, "summary: %s %s %.6g %.6g %.6g %.1f%% %s n=%d\n",
			r.Workload, r.Metric, r.Median, r.Q1, r.Q3, 100*r.Spread, r.Unit, r.Runs)
	}
}

// writeBaseline records a repeated run's summary with its environment
// stamp: the baseline later comparisons are read against.
func writeBaseline(path string, f *resultFile) error {
	f.Env.CPUModel = cpuModel()
	buf, err := json.MarshalIndent(struct {
		Env        envStamp     `json:"env"`
		Comparable bool         `json:"comparable"`
		Summary    []summaryRow `json:"summary"`
	}{f.Env, f.Comparable, summarize(f.Runs)}, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(buf, '\n'), 0o644)
}

// Verdicts of one compared (workload, metric) row.
const (
	verdictBetter     = "better"
	verdictWithin     = "within bound"
	verdictWorse      = "worse"
	verdictUnresolved = "unresolved" // run-to-run spread wider than the bound
)

// judge compares two sides' values of a bounded metric. worsening is the
// relative change of the medians in the metric's bad direction.
func judge(a, b []float64, better string, bound float64) (verdict string, worsening float64) {
	ma, mb := median(a), median(b)
	if ma != 0 {
		worsening = (mb - ma) / ma
	}
	if better == "higher" {
		worsening = -worsening
	}
	switch {
	case spread(a) > bound || spread(b) > bound:
		return verdictUnresolved, worsening
	case worsening > bound:
		return verdictWorse, worsening
	case worsening < -bound:
		return verdictBetter, worsening
	default:
		return verdictWithin, worsening
	}
}

func readResults(path string) (*resultFile, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f resultFile
	if err := json.Unmarshal(raw, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &f, nil
}

// compareFiles applies the end-to-end bounds to two result files (a = the
// parent, b = the change), one row per workload and metric, and reports
// whether any row is worse. Exact per-layer counts are compared for
// equality; they carry no bound and never fail the comparison.
func compareFiles(w io.Writer, pathA, pathB string) (worse bool, err error) {
	fa, err := readResults(pathA)
	if err != nil {
		return false, err
	}
	fb, err := readResults(pathB)
	if err != nil {
		return false, err
	}
	if !fa.Comparable || !fb.Comparable {
		fmt.Fprintln(w, "warning: at least one file holds non-comparable (smoke-scale) results")
	}
	a, b := collect(fa.Runs), collect(fb.Runs)
	fmt.Fprintln(w, "compare: workload metric median_a median_b change bound verdict")
	for _, key := range slices.Sorted(maps.Keys(a)) {
		sa, sb := a[key], b[key]
		if sb == nil {
			continue
		}
		for _, m := range e2eCatalog {
			if m.Name != sa.metric {
				continue
			}
			verdict, worsening := judge(sa.values, sb.values, m.Better, m.Bound)
			worse = worse || verdict == verdictWorse
			fmt.Fprintf(w, "compare: %s %s %.6g %.6g %+.1f%% %.0f%% %s (spread a %.1f%%, b %.1f%%; n=%d,%d)\n",
				sa.workload, sa.metric, median(sa.values), median(sb.values), 100*worsening, 100*m.Bound,
				verdict, 100*spread(sa.values), 100*spread(sb.values), len(sa.values), len(sb.values))
		}
		for _, m := range layerCatalog {
			if m.Name != sa.metric || !m.Exact {
				continue
			}
			verdict := "same count"
			if median(sa.values) != median(sb.values) || spread(sa.values) != 0 || spread(sb.values) != 0 {
				verdict = "count changed"
			}
			fmt.Fprintf(w, "compare: %s %s %.6g %.6g exact %s\n",
				sa.workload, sa.metric, median(sa.values), median(sb.values), verdict)
		}
	}
	return worse, nil
}
