// nicbench regenerates the paper's tables, figures and ablations from the
// simulator; it is the one way to produce them. Every artifact is a suite of
// experiments.Suites(), run as one batch through the internal/sweep harness:
// configurations run across a worker pool, points shared between suites
// simulate once per run, and committed golden baselines gate regressions.
//
// Usage:
//
//	nicbench -list                     # enumerate artifacts and job counts
//	nicbench -all -parallel 8          # everything, eight workers
//	nicbench -table 5                  # one table (1-6)
//	nicbench -figure 7 -json           # one figure (3, 7, 8), JSON results
//	nicbench -suite figure7,gate       # suites by key
//	nicbench -ablation ab              # design-choice ablations
//	nicbench -quick ...                # shorter simulation windows
//	nicbench -quick -check             # gate vs committed baselines (CI)
//	nicbench -quick -check -update-baseline  # refresh golden baselines
//	nicbench -all -cpuprofile cpu.prof # CPU profile of the whole run
//	nicbench -all -memprofile mem.prof # heap profile at exit
//	nicbench -json -canonical          # canonical results (byte-comparable)
//
// Simulation speed is not measured here: `bash bench/run.sh` (see
// BENCHMARK.json) judges it with paired runs.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime"
	"runtime/debug"
	"runtime/pprof"
	"strings"
	"time"

	"repro/internal/experiments"
	"repro/internal/sweep"
)

func main() {
	os.Exit(run())
}

func run() int {
	var (
		table    = flag.Int("table", 0, "regenerate one table (1-6)")
		figure   = flag.Int("figure", 0, "regenerate one figure (3, 7, 8)")
		ablation = flag.String("ablation", "", "ablations to run: any of 'a', 'b' (e.g. 'ab')")
		suites   = flag.String("suite", "", "comma-separated suite keys (see -list)")
		all      = flag.Bool("all", false, "regenerate everything")
		quick    = flag.Bool("quick", false, "shorter simulation windows")
		list     = flag.Bool("list", false, "list available suites and their job counts")

		parallel = flag.Int("parallel", 0, "worker pool size (0 = GOMAXPROCS)")
		jsonOut  = flag.Bool("json", false, "emit machine-readable JSON results instead of tables")

		check    = flag.Bool("check", false, "compare results against golden baselines; non-zero exit on regression")
		baseline = flag.String("baseline", "baselines/gate.json", "golden baseline file for -check/-update-baseline")
		update   = flag.Bool("update-baseline", false, "write fresh golden baselines to -baseline")

		cpuProfile = flag.String("cpuprofile", "", "write a CPU profile of the whole run to this file")
		memProfile = flag.String("memprofile", "", "write a heap profile at exit to this file")
		latency    = flag.Bool("latency", false, "observe frame lifecycles (latency section in reports; incompatible with -check/-update-baseline)")

		canonical = flag.Bool("canonical", false, "canonicalize -json results (zero wall times) for byte-exact comparison across runs")
	)
	flag.Parse()

	// Batch tool: trade heap headroom for throughput. The simulator's
	// allocation rate makes the default GC target (~100%) spend a measurable
	// slice of the run collecting; a larger target cuts that without changing
	// any result. An explicit GOGC in the environment still wins.
	if os.Getenv("GOGC") == "" {
		debug.SetGCPercent(400)
	}

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "nicbench:", err)
			return 1
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "nicbench:", err)
			return 1
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
		}()
	}
	if *memProfile != "" {
		defer func() {
			f, err := os.Create(*memProfile)
			if err != nil {
				fmt.Fprintln(os.Stderr, "nicbench:", err)
				return
			}
			defer f.Close()
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "nicbench:", err)
			}
		}()
	}
	if *latency {
		if *check || *update {
			// Observation adds a latency section to every report, which would
			// perturb the byte-exact baseline comparison.
			fmt.Fprintln(os.Stderr, "nicbench: -latency cannot be combined with -check or -update-baseline")
			return 2
		}
		experiments.Observe = true
	}

	b := experiments.Full
	budgetName := "full"
	if *quick {
		b = experiments.Quick
		budgetName = "quick"
	}

	if *list {
		listSuites(b, budgetName)
		return 0
	}

	sel, err := selectSuites(*table, *figure, *ablation, *suites, *all, *check || *update)
	if err != nil {
		fmt.Fprintln(os.Stderr, "nicbench:", err)
		return 2
	}
	if len(sel) == 0 {
		flag.Usage()
		return 2
	}

	ctx, cancel := signal.NotifyContext(context.Background(), os.Interrupt)
	defer cancel()

	sw := &sweep.Runner{Run: experiments.Simulate, Workers: *parallel}

	var (
		allResults  []sweep.Result
		ran, hit    int
		failed      []sweep.Result
		interrupted bool
		start       = time.Now()
	)
	for _, s := range sel {
		jobs := s.Jobs(b)
		res, err := sw.Sweep(ctx, jobs)
		for _, r := range res {
			if r.Cached {
				hit++
			} else if r.OK() {
				ran++
			}
			if !r.OK() {
				failed = append(failed, r)
			}
		}
		allResults = append(allResults, res...)
		if err != nil {
			interrupted = true
			break
		}
		if !*jsonOut {
			if perr := s.Print(os.Stdout, res); perr != nil {
				fmt.Fprintf(os.Stderr, "nicbench: %s: %v\n", s.Key, perr)
			}
			fmt.Fprintln(os.Stdout)
		}
	}

	status := 0
	var violations []sweep.Violation
	if *check && !interrupted {
		bf, err := sweep.LoadBaselines(*baseline)
		if err != nil {
			fmt.Fprintln(os.Stderr, "nicbench:", err)
			return 1
		}
		violations = sweep.Compare(allResults, bf)
	}

	if *jsonOut {
		emit := allResults
		if *canonical {
			emit = make([]sweep.Result, len(allResults))
			for i, r := range allResults {
				emit[i] = r.Canonical()
			}
		}
		out := struct {
			Budget     string            `json:"budget"`
			Results    []sweep.Result    `json:"results"`
			Violations []sweep.Violation `json:"violations,omitempty"`
		}{Budget: budgetName, Results: emit, Violations: violations}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(out); err != nil {
			fmt.Fprintln(os.Stderr, "nicbench:", err)
			return 1
		}
	}

	fmt.Fprintf(os.Stderr, "nicbench: %d simulated, %d cached, %d failed in %.1fs (budget %s)\n",
		ran, hit, len(failed), time.Since(start).Seconds(), budgetName)
	for _, r := range failed {
		msg := r.Err
		if i := strings.IndexByte(msg, '\n'); i >= 0 {
			msg = msg[:i]
		}
		fmt.Fprintf(os.Stderr, "nicbench: FAILED %s: %s\n", r.ID, msg)
	}
	if len(failed) > 0 {
		status = 1
	}
	if interrupted {
		fmt.Fprintln(os.Stderr, "nicbench: interrupted")
		return 1
	}

	if *update {
		bf := sweep.NewBaselines(allResults)
		if err := sweep.WriteBaselines(*baseline, bf); err != nil {
			fmt.Fprintln(os.Stderr, "nicbench:", err)
			return 1
		}
		fmt.Fprintf(os.Stderr, "nicbench: wrote %d baseline points to %s\n", len(bf.Baselines), *baseline)
	}
	if *check {
		if len(violations) > 0 {
			for _, v := range violations {
				fmt.Fprintln(os.Stderr, "nicbench: REGRESSION:", v)
			}
			fmt.Fprintf(os.Stderr, "nicbench: %d baseline violation(s) against %s\n", len(violations), *baseline)
			return 1
		}
		fmt.Fprintf(os.Stderr, "nicbench: baselines OK (%s)\n", *baseline)
	}
	return status
}

// selectSuites maps the flag surface to suite keys, in presentation order.
// gateDefault selects the gated suites — gate, robustness, and rss, whose
// points are all pinned in the baseline file — when nothing else is named
// (the -check / -update-baseline default).
func selectSuites(table, figure int, ablation, suiteList string, all, gateDefault bool) ([]experiments.Suite, error) {
	want := map[string]bool{}
	if all {
		for _, s := range experiments.Suites() {
			want[s.Key] = true
		}
	}
	if table != 0 {
		if table < 1 || table > 6 {
			return nil, fmt.Errorf("no table %d (have 1-6)", table)
		}
		want[fmt.Sprintf("table%d", table)] = true
	}
	switch figure {
	case 0:
	case 3, 7, 8:
		want[fmt.Sprintf("figure%d", figure)] = true
	default:
		return nil, fmt.Errorf("no figure %d (have 3, 7, 8)", figure)
	}
	if strings.Contains(ablation, "a") {
		want["ablation-a"] = true
	}
	if strings.Contains(ablation, "b") {
		want["ablation-b"] = true
	}
	for _, k := range strings.Split(suiteList, ",") {
		k = strings.TrimSpace(k)
		if k == "" {
			continue
		}
		if _, ok := experiments.SuiteByKey(k); !ok {
			return nil, fmt.Errorf("unknown suite %q (see -list)", k)
		}
		want[k] = true
	}
	if len(want) == 0 && gateDefault {
		want["gate"] = true
		want["robustness"] = true
		want["rss"] = true
	}
	var sel []experiments.Suite
	for _, s := range experiments.Suites() {
		if want[s.Key] {
			sel = append(sel, s)
		}
	}
	return sel, nil
}

func listSuites(b experiments.Budget, budgetName string) {
	fmt.Printf("suites (budget %s):\n", budgetName)
	total := 0
	for _, s := range experiments.Suites() {
		n := len(s.Jobs(b))
		total += n
		kind := fmt.Sprintf("%3d jobs", n)
		if n == 0 {
			kind = "analytic"
		}
		fmt.Printf("  %-12s %-8s  %s\n", s.Key, kind, s.Desc)
	}
	fmt.Printf("  %-12s %3d jobs total (duplicates across suites simulate once per run)\n", "", total)
}
