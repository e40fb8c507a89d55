package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"os/exec"
	"sort"
	"strconv"
	"strings"
	"time"
)

// runRecord is one child run as stored in a -runs output file.
type runRecord struct {
	Workload string    `json:"workload"`
	Seed     int64     `json:"seed"`
	Trace    int       `json:"trace"`
	Started  time.Time `json:"started"`
	Result   Result    `json:"result"`
}

// summaryStat is one metric's distribution over a file's runs.
type summaryStat struct {
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
	Unit   string  `json:"unit"`
	N      int     `json:"n"`
}

// runsFile is the -out file: every run made, and per workload and metric
// the medians and quartiles over them (traced and untraced runs apart).
type runsFile struct {
	Runs    []runRecord                       `json:"runs"`
	Summary map[string]map[string]summaryStat `json:"summary"`
}

type orchestration struct {
	runs    int
	seed    int64
	seconds float64
	trace   int
	out     string
	asapd   string
}

// orchestrate runs every workload o.runs times, each run in a child
// process. Run r starts at a different workload, so slow drift of the
// machine spreads over all workloads instead of landing on one.
func orchestrate(o orchestration, stdout, stderr io.Writer) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintf(stderr, "asapperf: %v\n", err)
		return 1
	}
	var file runsFile
	if o.out != "" {
		if file, err = readRuns(o.out); err != nil && !errors.Is(err, os.ErrNotExist) {
			fmt.Fprintf(stderr, "asapperf: %v\n", err)
			return 1
		}
	}
	code := 0
	for r := range o.runs {
		for i := range workloadOrder {
			w := workloadOrder[(i+r)%len(workloadOrder)]
			rec, err := runChild(self, w, o, o.seed+int64(r), stdout, stderr)
			if err != nil {
				fmt.Fprintf(stderr, "asapperf: %s seed %d: %v\n", w, o.seed+int64(r), err)
				code = 1
				continue
			}
			if !rec.Result.Correct {
				code = 1
			}
			file.Runs = append(file.Runs, rec)
		}
	}
	file.Summary = summarize(file.Runs)
	fmt.Fprintln(stdout, "# summary: median [q1 q3] over runs")
	printSummary(stdout, file.Summary)
	if o.out != "" {
		b, err := json.MarshalIndent(file, "", "  ")
		if err == nil {
			err = os.WriteFile(o.out, append(b, '\n'), 0o644)
		}
		if err != nil {
			fmt.Fprintf(stderr, "asapperf: %v\n", err)
			return 1
		}
	}
	return code
}

// runChild runs one workload in a child asapperf, copies its readable
// lines to stdout and parses the JSON line it ends with.
func runChild(self, w string, o orchestration, seed int64, stdout, stderr io.Writer) (runRecord, error) {
	rec := runRecord{Workload: w, Seed: seed, Trace: o.trace, Started: time.Now().UTC()}
	cmd := exec.Command(self, "-workload", w, "-seed", strconv.FormatInt(seed, 10),
		"-seconds", strconv.FormatFloat(o.seconds, 'g', -1, 64), "-trace", strconv.Itoa(o.trace), "-asapd", o.asapd)
	var out bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, stderr
	runErr := cmd.Run()
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	fmt.Fprintf(stdout, "# %s seed %d\n", w, seed)
	for _, l := range lines[:len(lines)-1] {
		fmt.Fprintln(stdout, l)
	}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &rec.Result); err != nil {
		if runErr != nil {
			return rec, runErr
		}
		return rec, fmt.Errorf("no result line: %w", err)
	}
	return rec, nil
}

func readRuns(path string) (runsFile, error) {
	var f runsFile
	b, err := os.ReadFile(path)
	if err != nil {
		return f, err
	}
	if err := json.Unmarshal(b, &f); err != nil {
		return f, fmt.Errorf("%s: %w", path, err)
	}
	return f, nil
}

// summaryKey names a workload's summary: traced runs report different
// metrics, so they are summarised apart.
func summaryKey(r runRecord) string {
	if r.Trace == 1 {
		return r.Workload + "/traced"
	}
	return r.Workload
}

func summarize(runs []runRecord) map[string]map[string]summaryStat {
	values := map[string]map[string][]float64{}
	units := map[string]string{}
	for _, r := range runs {
		k := summaryKey(r)
		if values[k] == nil {
			values[k] = map[string][]float64{}
		}
		for name, m := range r.Result.Metrics {
			values[k][name] = append(values[k][name], m.Value)
			units[name] = m.Unit
		}
	}
	out := map[string]map[string]summaryStat{}
	for k, metrics := range values {
		out[k] = map[string]summaryStat{}
		for name, xs := range metrics {
			q1, med, q3 := quartiles(xs)
			out[k][name] = summaryStat{Median: med, Q1: q1, Q3: q3, Unit: units[name], N: len(xs)}
		}
	}
	return out
}

func printSummary(w io.Writer, s map[string]map[string]summaryStat) {
	for _, k := range sortedKeys(s) {
		for _, name := range sortedKeys(s[k]) {
			st := s[k][name]
			fmt.Fprintf(w, "%s %s %.6g %s [%.6g %.6g] n=%d\n", k, name, st.Median, st.Unit, st.Q1, st.Q3, st.N)
		}
	}
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
