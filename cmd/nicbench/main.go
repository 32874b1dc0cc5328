// nicbench regenerates the paper's tables and figures from the simulator,
// orchestrated by the internal/sweep harness: configurations run across a
// worker pool, results persist to a resumable JSONL store, and committed
// golden baselines gate regressions.
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
//	nicbench -all -out results/        # persist results; ^C then -resume
//	nicbench -all -out results/ -resume
//	nicbench -quick -check             # gate vs committed baselines (CI)
//	nicbench -quick -check -update-baseline  # refresh golden baselines
//	nicbench -quick -all -times        # per-job sim-time/wall-time summary
//	nicbench -all -cpuprofile cpu.prof # CPU profile of the whole run
//	nicbench -all -memprofile mem.prof # heap profile at exit
//	nicbench -quick -simspeed-check    # gate vs BENCH_simspeed.json (CI)
//	nicbench -simspeed-update          # refresh BENCH_simspeed.json
//	nicbench -json -canonical          # canonical results (byte-comparable)
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
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
		timeout  = flag.Duration("timeout", 0, "per-job timeout (0 = none)")
		jsonOut  = flag.Bool("json", false, "emit machine-readable JSON results instead of tables")
		outDir   = flag.String("out", "", "directory for the resumable result store (results.jsonl)")
		resume   = flag.Bool("resume", false, "reuse results already in -out instead of starting fresh")

		check    = flag.Bool("check", false, "compare results against golden baselines; non-zero exit on regression")
		baseline = flag.String("baseline", "baselines/gate.json", "golden baseline file for -check/-update-baseline")
		update   = flag.Bool("update-baseline", false, "write fresh golden baselines to -baseline")

		cpuProfile = flag.String("cpuprofile", "", "write a CPU profile of the whole run to this file")
		memProfile = flag.String("memprofile", "", "write a heap profile at exit to this file")
		times      = flag.Bool("times", false, "print a per-job simulated-time/wall-time summary")
		latency    = flag.Bool("latency", false, "observe frame lifecycles (latency section in reports; incompatible with -check/-update-baseline)")

		ssCheck  = flag.Bool("simspeed-check", false, "measure simulation speed and compare against -simspeed-file; non-zero exit on regression")
		ssUpdate = flag.Bool("simspeed-update", false, "measure simulation speed and rewrite -simspeed-file")
		ssFile   = flag.String("simspeed-file", "BENCH_simspeed.json", "committed simulation-speed baseline for -simspeed-check/-simspeed-update")

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

	if *ssCheck || *ssUpdate {
		return runSimSpeed(*ssFile, *ssCheck, *ssUpdate, *quick)
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

	var store *sweep.Store
	if *resume && *outDir == "" {
		fmt.Fprintln(os.Stderr, "nicbench: -resume requires -out")
		return 2
	}
	if *outDir != "" {
		path := filepath.Join(*outDir, sweep.StoreFileName)
		if !*resume {
			// A fresh run must not silently serve a previous run's points.
			if err := os.Remove(path); err != nil && !os.IsNotExist(err) {
				fmt.Fprintln(os.Stderr, "nicbench:", err)
				return 1
			}
		}
		store, err = sweep.OpenStore(path)
		if err != nil {
			fmt.Fprintln(os.Stderr, "nicbench:", err)
			return 1
		}
		defer store.Close()
	}

	ctx, cancel := signal.NotifyContext(context.Background(), os.Interrupt)
	defer cancel()

	sw := &sweep.Runner{
		Run:     experiments.Simulate,
		Workers: *parallel,
		Timeout: *timeout,
		Store:   store,
	}

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

	if *times {
		printTimes(allResults)
	}
	extra := ""
	if n := sw.Stats().StoreErrors; n > 0 {
		extra = fmt.Sprintf(", %d store errors", n)
	}
	fmt.Fprintf(os.Stderr, "nicbench: %d simulated, %d cached, %d failed%s in %.1fs (budget %s)\n",
		ran, hit, len(failed), extra, time.Since(start).Seconds(), budgetName)
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
		hint := ""
		if *outDir != "" {
			hint = fmt.Sprintf(" — finished jobs are saved; rerun with -resume -out %s", *outDir)
		}
		fmt.Fprintf(os.Stderr, "nicbench: interrupted%s\n", hint)
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

// printTimes emits a -list-style per-job summary of simulated time versus
// wall time. Cached results carry no meaningful wall time and are marked so.
func printTimes(results []sweep.Result) {
	fmt.Printf("%-28s %10s %10s %12s\n", "job", "sim-us", "wall-s", "sim-ns/wall-ms")
	var simTot, wallTot float64
	for _, r := range results {
		if !r.OK() {
			continue
		}
		simUs := float64(r.Spec.WarmupPs+r.Spec.MeasurePs) / 1e6
		if r.Cached {
			fmt.Printf("%-28s %10.0f %10s %12s\n", r.ID, simUs, "cached", "-")
			continue
		}
		ratio := 0.0
		if r.ElapsedSec > 0 {
			// simulated ns advanced per wall millisecond.
			ratio = (simUs * 1e3) / (r.ElapsedSec * 1e3)
		}
		fmt.Printf("%-28s %10.0f %10.2f %12.0f\n", r.ID, simUs, r.ElapsedSec, ratio)
		simTot += simUs
		wallTot += r.ElapsedSec
	}
	if wallTot > 0 {
		fmt.Printf("%-28s %10.0f %10.2f %12.0f\n", "total (simulated jobs)", simTot, wallTot, simTot*1e3/(wallTot*1e3))
	}
}

// runSimSpeed measures the simulation-speed operating points and either
// rewrites the committed baseline (-simspeed-update) or gates against it
// (-simspeed-check).
func runSimSpeed(path string, check, update, quick bool) int {
	b := experiments.Full
	if quick {
		b = experiments.Quick
	}
	fresh := experiments.MeasureSimSpeed(b)
	for _, p := range fresh {
		fmt.Printf("simspeed %-16s %8.0f sim-ns/wall-ms  %7.0f B/sim-us  %7.3f allocs/step  %d steps\n",
			p.Name, p.SimNsPerWallMs, p.AllocBytesPerSimUs, p.AllocsPerStep, p.Steps)
	}
	if update {
		f := experiments.SimSpeedFile{Schema: experiments.SimSpeedSchema, Tolerance: 0.25, Points: fresh}
		if old, err := experiments.LoadSimSpeed(path); err == nil {
			// Keep the informational suite-wall fields across refreshes.
			f.Tolerance = old.Tolerance
			f.QuickSuiteWallSec = old.QuickSuiteWallSec
			f.QuickSuiteWallSecPrev = old.QuickSuiteWallSecPrev
		}
		if err := experiments.WriteSimSpeed(path, f); err != nil {
			fmt.Fprintln(os.Stderr, "nicbench:", err)
			return 1
		}
		fmt.Fprintf(os.Stderr, "nicbench: wrote %d simspeed points to %s\n", len(fresh), path)
		return 0
	}
	base, err := experiments.LoadSimSpeed(path)
	if err != nil {
		fmt.Fprintln(os.Stderr, "nicbench:", err)
		return 1
	}
	if bad := experiments.CompareSimSpeed(base, fresh); len(bad) > 0 {
		for _, m := range bad {
			fmt.Fprintln(os.Stderr, "nicbench: SIMSPEED REGRESSION:", m)
		}
		return 1
	}
	fmt.Fprintf(os.Stderr, "nicbench: simulation speed OK (%s)\n", path)
	return 0
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
