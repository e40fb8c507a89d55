package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"strings"
)

// benchmarkFile is the metric part of BENCHMARK.json.
type benchmarkFile struct {
	EndToEnd []benchMetric `json:"end_to_end"`
	PerLayer []benchMetric `json:"per_layer"`
}

type benchMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"` // end-to-end metrics only
}

// minPairs is the fewest paired runs a claimed gain may rest on.
const minPairs = 10

// runCompare checks a change's runs against its parent's. The claimed
// metric must win at least nine pairs in ten over at least ten pairs,
// with medians further apart than the parent's interquartile range.
// Every other metric on every workload must stay within its bound; a
// metric whose parent spread is wider than the bound is unresolved,
// unless every change run beats every parent run. Any increase in
// failed operations is a regression. One row is printed per workload.
func runCompare(parentPath, changePath, claim string, stdout, stderr io.Writer) int {
	parent, perr := readRuns(parentPath)
	change, cerr := readRuns(changePath)
	var bench benchmarkFile
	berr := readJSON("BENCHMARK.json", &bench)
	for _, err := range []error{perr, cerr, berr} {
		if err != nil {
			fmt.Fprintf(stderr, "asapperf: %v\n", err)
			return 1
		}
	}
	return compareRuns(parent, change, bench, claim, stdout)
}

func readJSON(path string, v any) error {
	b, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(b, v); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}

// byWorkload groups untraced runs' results by workload, in file order.
func byWorkload(f runsFile) map[string][]Result {
	out := map[string][]Result{}
	for _, r := range f.Runs {
		if r.Trace == 0 {
			out[r.Workload] = append(out[r.Workload], r.Result)
		}
	}
	return out
}

func compareRuns(parent, change runsFile, bench benchmarkFile, claim string, w io.Writer) int {
	claimMetric, claimWorkload, _ := strings.Cut(claim, "@")
	pw, cw := byWorkload(parent), byWorkload(change)
	code, claimSeen := 0, claim == ""
	for _, wl := range workloadOrder {
		ps, cs := pw[wl], cw[wl]
		if len(ps) == 0 || len(cs) == 0 {
			continue
		}
		row := []string{wl}
		pf, cf := failedFrac(ps), failedFrac(cs)
		if cf > pf {
			row = append(row, fmt.Sprintf("failed_frac REGRESSED(%.3g -> %.3g)", pf, cf))
			code = 1
		}
		for _, m := range bench.EndToEnd {
			pv, cv := values(ps, m.Name), values(cs, m.Name)
			if len(pv) == 0 || len(cv) == 0 {
				continue
			}
			lower := m.Better == "lower"
			if m.Name == claimMetric && wl == claimWorkload {
				claimSeen = true
				met, text := judgeClaim(pv, cv, lower)
				row = append(row, m.Name+" "+text)
				if !met {
					code = 1
				}
				continue
			}
			verdict, worse := judgeBound(pv, cv, lower, m.Bound)
			if verdict == "REGRESSED" {
				code = 1
			}
			row = append(row, fmt.Sprintf("%s %s(%+.1f%%)", m.Name, verdict, 100*worse))
		}
		fmt.Fprintln(w, strings.Join(row, "  "))
	}
	if !claimSeen {
		fmt.Fprintf(w, "claim %s: no untraced runs of that metric and workload in both files\n", claim)
		code = 1
	}
	return code
}

func values(rs []Result, metric string) []float64 {
	var out []float64
	for _, r := range rs {
		if m, ok := r.Metrics[metric]; ok {
			out = append(out, m.Value)
		}
	}
	return out
}

func failedFrac(rs []Result) float64 {
	var failed, attempted int
	for _, r := range rs {
		failed += r.Failed
		attempted += r.Attempted
	}
	if attempted == 0 {
		return 0
	}
	return float64(failed) / float64(attempted)
}

// judgeClaim applies the gain rule to paired runs: pair i is parent run
// i against change run i.
func judgeClaim(pv, cv []float64, lower bool) (bool, string) {
	n := min(len(pv), len(cv))
	wins := 0
	for i := range n {
		if better(cv[i], pv[i], lower) {
			wins++
		}
	}
	q1, pmed, q3 := quartiles(pv)
	cmed := median(cv)
	met := n >= minPairs && wins*10 >= 9*n && better(cmed, pmed, lower) && math.Abs(cmed-pmed) > q3-q1
	verdict := "CLAIM NOT MET"
	if met {
		verdict = "CLAIM MET"
	}
	return met, fmt.Sprintf("%s(parent %.6g [%.6g %.6g], change %.6g, wins %d/%d)", verdict, pmed, q1, q3, cmed, wins, n)
}

// judgeBound returns "ok", "better", "REGRESSED" or "unresolved", and how
// much worse the change's median is than the parent's, as a share.
func judgeBound(pv, cv []float64, lower bool, bound float64) (string, float64) {
	pmed, cmed := median(pv), median(cv)
	worse := (cmed - pmed) / pmed
	if !lower {
		worse = -worse
	}
	if spread(pv) > bound {
		if allBetter(cv, pv, lower) {
			return "better", worse
		}
		return "unresolved", worse
	}
	if worse > bound {
		return "REGRESSED", worse
	}
	return "ok", worse
}

func better(a, b float64, lower bool) bool {
	if lower {
		return a < b
	}
	return a > b
}

// allBetter reports whether every value of cv beats every value of pv.
func allBetter(cv, pv []float64, lower bool) bool {
	for _, c := range cv {
		for _, p := range pv {
			if !better(c, p, lower) {
				return false
			}
		}
	}
	return true
}
