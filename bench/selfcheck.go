package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"slices"
	"strconv"
)

// selfcheckPasses is how many passes over the workloads a selfcheck
// makes. Odd passes form the first set and run the workloads in table
// order, even passes the second set in reverse order, so a slow spell
// of the machine falls on both sets alike; a set's value of a metric
// is the median of its runs, so one disturbed run does not decide it.
const selfcheckPasses = 6

// exactAtFixedSeed names the end-to-end metrics that count outcomes,
// not time: every run of a workload at one seed must print the very
// same value, and so the same number of attempted operations.
var exactAtFixedSeed = map[string]bool{"sensitivity": true, "precision": true}

// runSelfcheck measures every workload twice over — two interleaved
// sets of runs, tracing off, each run a fresh process — and compares
// the two values of every end-to-end metric against the metric's
// bound; the metrics of exactAtFixedSeed must moreover be identical in
// all runs. It returns the process exit code: non-zero when a pair is
// outside its bound, a count differs or a run was incorrect.
func runSelfcheck(o options) int {
	order := make([]string, len(workloads))
	for i, w := range workloads {
		order[i] = w.name
	}
	reversed := make([]string, len(order))
	for i, name := range order {
		reversed[len(order)-1-i] = name
	}
	// values[set][workload][metric] lists the set's runs.
	values := [2]map[string]map[string][]float64{{}, {}}
	attempted := map[string][]int{}
	incorrect := map[string]bool{}
	for pass := 0; pass < selfcheckPasses; pass++ {
		set, names := pass%2, order
		if set == 1 {
			names = reversed
		}
		for _, name := range names {
			fmt.Fprintf(os.Stderr, "selfcheck: pass %d of %d: %s\n", pass+1, selfcheckPasses, name)
			res, err := childRun(o, name)
			if err != nil {
				fmt.Fprintf(os.Stderr, "selfcheck: %s: %v\n", name, err)
				return 1
			}
			if !res.Correct {
				incorrect[name] = true
			}
			attempted[name] = append(attempted[name], res.Attempted)
			if values[set][name] == nil {
				values[set][name] = map[string][]float64{}
			}
			for metric, v := range res.Metrics {
				values[set][name][metric] = append(values[set][name][metric], v.Value)
			}
		}
	}
	fmt.Printf("selfcheck seed=%d seconds=%g: two interleaved sets of %d runs per workload, medians compared\n", o.seed, o.seconds, selfcheckPasses/2)
	fmt.Printf("%-16s %-13s %12s %12s %8s %6s\n", "workload", "metric", "first", "second", "ratio", "bound")
	bad := 0
	for _, name := range order {
		for _, d := range endToEnd {
			x, y := median(values[0][name][d.name]), median(values[1][name][d.name])
			mark := ""
			if !withinBound(d, x, y) {
				mark = "  OUTSIDE BOUND"
				bad++
			}
			if all := slices.Concat(values[0][name][d.name], values[1][name][d.name]); exactAtFixedSeed[d.name] && !allEqual(all) {
				mark += fmt.Sprintf("  NOT EXACT: %v", all)
				bad++
			}
			fmt.Printf("%-16s %-13s %12.6g %12.6g %8.4f %6.3f%s\n", name, d.name, x, y, ratio(y, x), d.bound, mark)
		}
		if !allEqual(attempted[name]) {
			fmt.Printf("%-16s attempted NOT EXACT: %v\n", name, attempted[name])
			bad++
		}
		if incorrect[name] {
			fmt.Printf("%-16s INCORRECT OUTPUT\n", name)
			bad++
		}
	}
	if bad > 0 {
		fmt.Printf("selfcheck: %d failures\n", bad)
		return 1
	}
	fmt.Println("selfcheck: every pair within its bound, every count exact")
	return 0
}

func allEqual[T comparable](xs []T) bool {
	for _, x := range xs {
		if x != xs[0] {
			return false
		}
	}
	return true
}

// withinBound reports whether two runs of one commit agree on a metric:
// neither value is worse than the other by more than the metric's
// bound, as a share of the better one.
func withinBound(d metricDef, x, y float64) bool {
	lo, hi := min(x, y), max(x, y)
	if lo <= 0 {
		return false // end-to-end metrics are never 0
	}
	return (hi-lo)/lo <= d.bound
}

// childRun runs one workload in a fresh process and parses the result
// line it prints last.
func childRun(o options, workload string) (resultLine, error) {
	var res resultLine
	exe, err := os.Executable()
	if err != nil {
		return res, err
	}
	cmd := exec.Command(exe, "-workload", workload, "-trace", "0",
		"-seed", strconv.FormatInt(o.seed, 10),
		"-seconds", strconv.FormatFloat(o.seconds, 'g', -1, 64))
	cmd.Stderr = os.Stderr
	stdout, err := cmd.Output()
	var last []byte
	sc := bufio.NewScanner(bytes.NewReader(stdout))
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		last = append(last[:0], sc.Bytes()...)
	}
	// An incorrect run exits non-zero but still prints its result.
	if jerr := json.Unmarshal(last, &res); jerr != nil {
		if err != nil {
			return res, err
		}
		return res, fmt.Errorf("parsing result line: %w", jerr)
	}
	return res, nil
}
