package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
)

// Paired comparison of a parent commit against a change. Each directory
// holds --json results, one file per run; a file of the same name in both
// directories is one pair (same workload, same seed, run back to back with
// the side that runs first alternating). A gain needs at least 10 pairs,
// wins in nine tenths of them and a median gap wider than the parent's
// interquartile range; a regression is a median worse than the parent's by
// more than the metric's bound; a metric whose spread is wider than its
// bound is unresolved unless every change run beats (or loses to) every
// parent run.

// benchmarkFile is the part of BENCHMARK.json the comparison reads.
type benchmarkFile struct {
	EndToEnd []declaredMetric `json:"end_to_end"`
}

type declaredMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// minPairs is the fewest pairs a gain may rest on.
const minPairs = 10

// Verdicts.
const (
	verdictGain        = "gain"
	verdictRegression  = "regression"
	verdictUnresolved  = "unresolved"
	verdictWithinBound = "within-bound"
	verdictTooFewPairs = "too-few-pairs"
	verdictGainVoided  = "gain-void-more-failures"
	verdictNotMeasured = "not-measured"
)

// pairVerdict is the comparison of one (workload, metric).
type pairVerdict struct {
	Workload, Metric string
	Verdict          string
	Pairs, Wins      int
	Parent, Change   [3]float64 // q1, median, q3
}

// judge applies the rule to one metric's paired values. better is "higher"
// or "lower"; bound is the relative worsening the benchmark allows;
// moreFailures voids a gain.
func judge(parent, change []float64, better string, bound float64, moreFailures bool) (verdict string, wins int) {
	n := len(parent)
	if n == 0 || n != len(change) {
		return verdictNotMeasured, 0
	}
	sign := 1.0
	if better == "lower" {
		sign = -1
	}
	for i := range parent {
		if sign*(change[i]-parent[i]) > 0 {
			wins++
		}
	}
	pq1, pm, pq3 := quartiles(parent)
	cq1, cm, cq3 := quartiles(change)
	gap := sign * (cm - pm)
	if n >= minPairs && 10*wins >= 9*n && gap > pq3-pq1 {
		if moreFailures {
			return verdictGainVoided, wins
		}
		return verdictGain, wins
	}
	worse := func(a, b float64) bool { return sign*(a-b) < 0 } // a worse than b
	allBetter, allWorse := true, true
	for _, c := range change {
		for _, p := range parent {
			if !worse(p, c) {
				allBetter = false
			}
			if !worse(c, p) {
				allWorse = false
			}
		}
	}
	spread := func(q1, m, q3 float64) float64 {
		if m == 0 {
			return 0
		}
		return (q3 - q1) / abs(m)
	}
	regressed := -gap > bound*abs(pm)
	if spread(pq1, pm, pq3) > bound || spread(cq1, cm, cq3) > bound {
		switch {
		case allWorse && regressed:
			return verdictRegression, wins
		case allBetter:
			return verdictWithinBound, wins
		}
		return verdictUnresolved, wins
	}
	if regressed {
		return verdictRegression, wins
	}
	if n < minPairs {
		return verdictTooFewPairs, wins
	}
	return verdictWithinBound, wins
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

func loadResults(dir string) (map[string]*result, error) {
	paths, err := filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil {
		return nil, err
	}
	out := map[string]*result{}
	for _, p := range paths {
		b, err := os.ReadFile(p)
		if err != nil {
			return nil, err
		}
		var r result
		if err := json.Unmarshal(b, &r); err != nil {
			return nil, fmt.Errorf("%s: %w", p, err)
		}
		if r.Trace {
			continue // per-layer runs carry no end-to-end metrics
		}
		out[filepath.Base(p)] = &r
	}
	return out, nil
}

// comparePairs pairs the runs by file name and judges every end-to-end
// metric of every workload.
func comparePairs(bf benchmarkFile, parent, change map[string]*result) []pairVerdict {
	type key struct{ workload, metric string }
	pv, cv := map[key][]float64{}, map[key][]float64{}
	pFail, cFail := map[string]int{}, map[string]int{}
	workloads := map[string]bool{}
	names := make([]string, 0, len(parent))
	for name := range parent {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		p, c := parent[name], change[name]
		if c == nil || c.Workload != p.Workload {
			continue
		}
		workloads[p.Workload] = true
		pFail[p.Workload] += p.Failed
		cFail[c.Workload] += c.Failed
		for _, m := range bf.EndToEnd {
			ps, pok := p.Metrics[m.Name]
			cs, cok := c.Metrics[m.Name]
			if !pok || !cok {
				continue
			}
			k := key{p.Workload, m.Name}
			pv[k] = append(pv[k], ps.Value)
			cv[k] = append(cv[k], cs.Value)
		}
	}
	wl := make([]string, 0, len(workloads))
	for w := range workloads {
		wl = append(wl, w)
	}
	sort.Strings(wl)
	var out []pairVerdict
	for _, w := range wl {
		for _, m := range bf.EndToEnd {
			k := key{w, m.Name}
			v, wins := judge(pv[k], cv[k], m.Better, m.Bound, cFail[w] > pFail[w])
			d := pairVerdict{Workload: w, Metric: m.Name, Verdict: v, Pairs: len(pv[k]), Wins: wins}
			if len(pv[k]) > 0 {
				d.Parent[0], d.Parent[1], d.Parent[2] = quartiles(pv[k])
				d.Change[0], d.Change[1], d.Change[2] = quartiles(cv[k])
			}
			out = append(out, d)
		}
	}
	return out
}

func runCompare(benchPath, parentDir, changeDir string, stdout, stderr io.Writer) int {
	b, err := os.ReadFile(benchPath)
	if err != nil {
		fmt.Fprintln(stderr, "nicperf:", err)
		return 1
	}
	var bf benchmarkFile
	if err := json.Unmarshal(b, &bf); err != nil {
		fmt.Fprintf(stderr, "nicperf: %s: %v\n", benchPath, err)
		return 1
	}
	parent, err := loadResults(parentDir)
	if err != nil {
		fmt.Fprintln(stderr, "nicperf:", err)
		return 1
	}
	change, err := loadResults(changeDir)
	if err != nil {
		fmt.Fprintln(stderr, "nicperf:", err)
		return 1
	}
	verdicts := comparePairs(bf, parent, change)
	if len(verdicts) == 0 {
		fmt.Fprintln(stderr, "nicperf: no paired results (files of the same name in both directories)")
		return 1
	}
	status := 0
	fmt.Fprintf(stdout, "%-14s %-24s %-24s %5s %s\n", "workload", "metric", "verdict", "wins", "parent q1/median/q3 -> change q1/median/q3")
	for _, v := range verdicts {
		fmt.Fprintf(stdout, "%-14s %-24s %-24s %2d/%-2d %.6g/%.6g/%.6g -> %.6g/%.6g/%.6g\n",
			v.Workload, v.Metric, v.Verdict, v.Wins, v.Pairs,
			v.Parent[0], v.Parent[1], v.Parent[2], v.Change[0], v.Change[1], v.Change[2])
		if v.Verdict == verdictRegression {
			status = 1
		}
	}
	return status
}
