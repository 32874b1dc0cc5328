// Command nicperf is the repository benchmark. It answers two questions for
// one workload per invocation: how fast the simulator runs (host time) and
// what the simulated NIC achieves (simulated time). Run it through
// bench/run.sh from the repository root:
//
//	bash bench/run.sh --workload line-rmw166 --seed 1 --seconds 20 --trace 0
//	bash bench/run.sh --workload hostile-rss --seed 1 --seconds 20 --trace 1
//	bash bench/run.sh --compare PARENT_DIR CHANGE_DIR
//
// The load is a closed loop: one op starts only after the previous one
// finished. Every metric is printed as "workload metric value unit (median
// q1 q3 n)", the same data is written as JSON (--json), and the last line
// of standard output is a one-line JSON verdict with the keys correct,
// attempted, failed and metrics. See README.md for the workloads, the
// metrics and what each layer metric is expected to move.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
)

// setupEnv names the environment variable that turns the binary into a
// set-up child: it builds and warms one workload in a fresh process, prints
// its phase times and exits (see setup.go).
const setupEnv = "NICPERF_SETUP"

func main() {
	if spec := os.Getenv(setupEnv); spec != "" {
		os.Exit(setupChild(spec, os.Stdout))
	}
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func init() {
	// The same GC target as cmd/nicbench, the tool that runs the gate sweep:
	// batch simulation trades heap headroom for throughput. An explicit GOGC
	// in the environment still wins.
	if os.Getenv("GOGC") == "" {
		debug.SetGCPercent(400)
	}
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("nicperf", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		name     = fs.String("workload", "", "workload to run: "+strings.Join(workloadNames, ", "))
		seed     = fs.Int64("seed", 1, "seed of the hostile traffic and fault plan (hostile-rss); the other workloads have no random input")
		seconds  = fs.Float64("seconds", 20, "how long the closed loop of ops runs, in wall seconds")
		trace    = fs.Int("trace", 0, "1 runs the traced per-layer run instead of the end-to-end run")
		traceDir = fs.String("trace-dir", "", "where the traced run writes spans.json, layers.json and cpu.pprof (default .bench_build/trace/WORKLOAD)")
		jsonOut  = fs.String("json", "", "file for the detailed JSON result (default .bench_build/results/WORKLOAD-seedN-traceT.json)")
		baseline = fs.String("baseline", "baselines/gate.json", "golden baseline file the gate-sweep workload checks against")
		compare  = fs.Bool("compare", false, "compare two directories of --json results: --compare PARENT_DIR CHANGE_DIR")
		benchDef = fs.String("benchmark", "BENCHMARK.json", "benchmark definition holding the regression bounds (--compare)")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "nicperf: --compare needs PARENT_DIR and CHANGE_DIR")
			return 2
		}
		return runCompare(*benchDef, fs.Arg(0), fs.Arg(1), stdout, stderr)
	}
	if fs.NArg() != 0 {
		fmt.Fprintf(stderr, "nicperf: unexpected arguments %q\n", fs.Args())
		return 2
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(stderr, "nicperf: --trace must be 0 or 1")
		return 2
	}
	o := defaultOptions(*name, *seed, *seconds, *trace == 1)
	o.baseline = *baseline
	if *traceDir != "" {
		o.traceDir = *traceDir
	}
	if *jsonOut == "" {
		*jsonOut = filepath.Join(".bench_build", "results", fmt.Sprintf("%s-seed%d-trace%d.json", *name, *seed, *trace))
	}

	res, err := runWorkload(o, stderr)
	if err != nil {
		fmt.Fprintln(stderr, "nicperf:", err)
		return 1
	}
	if err := writeJSON(*jsonOut, res); err != nil {
		fmt.Fprintln(stderr, "nicperf:", err)
		return 1
	}
	res.print(stdout)
	return 0
}

// result is one run of one workload: what was attempted, what failed, and
// every metric's distribution. It is also the --json file format that
// --compare reads.
type result struct {
	Workload  string             `json:"workload"`
	Seed      int64              `json:"seed"`
	Trace     bool               `json:"trace"`
	Seconds   float64            `json:"seconds"`
	GoVersion string             `json:"go_version"`
	NumCPU    int                `json:"nproc"`
	Digest    string             `json:"digest"`
	Correct   bool               `json:"correct"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Problems  []string           `json:"problems,omitempty"`
	Metrics   map[string]summary `json:"metrics"`
}

// finish turns a run's samples into the declared metric set. A declared
// metric without samples makes the run incorrect rather than silently
// missing.
func finish(o options, st *runState) *result {
	defs := endToEnd
	if o.trace {
		defs = perLayer
	}
	r := &result{
		Workload:  o.workload,
		Seed:      o.seed,
		Trace:     o.trace,
		Seconds:   o.seconds,
		GoVersion: runtime.Version(),
		NumCPU:    runtime.NumCPU(),
		Digest:    st.digest,
		Attempted: st.attempted,
		Failed:    st.failed,
		Problems:  st.problems,
		Metrics:   map[string]summary{},
	}
	for _, d := range defs {
		s := summarize(d, st.samples[d.name], st.samples[d.ref])
		if math.IsNaN(s.Value) || math.IsInf(s.Value, 0) {
			r.Problems = append(r.Problems, fmt.Sprintf("metric %s was not measured", d.name))
			s = summary{Unit: d.unit, Better: d.better}
		}
		r.Metrics[d.name] = s
	}
	r.Correct = r.Failed == 0 && len(r.Problems) == 0 && r.Attempted > 0
	return r
}

// verdict is the one-line JSON the last line of standard output carries.
type verdict struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func (r *result) print(w io.Writer) {
	names := make([]string, 0, len(r.Metrics))
	for n := range r.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Fprintf(w, "%s digest %s (seed %d, %d ops attempted, %d failed)\n", r.Workload, r.Digest, r.Seed, r.Attempted, r.Failed)
	for _, p := range r.Problems {
		fmt.Fprintf(w, "%s PROBLEM %s\n", r.Workload, p)
	}
	v := verdict{Correct: r.Correct, Attempted: r.Attempted, Failed: r.Failed, Metrics: map[string]metricValue{}}
	for _, n := range names {
		s := r.Metrics[n]
		fmt.Fprintf(w, "%s %s %.6g %s (median %.6g q1 %.6g q3 %.6g n %d", r.Workload, n, s.Value, s.Unit, s.Median, s.Q1, s.Q3, s.N)
		if s.Slowness != 0 {
			fmt.Fprintf(w, "; raw best decile %.6g, slowness %.4g", s.Raw, s.Slowness)
		}
		fmt.Fprintln(w, ")")
		v.Metrics[n] = metricValue{Value: s.Value, Unit: s.Unit}
	}
	b, err := json.Marshal(v)
	if err != nil {
		// Every value passed the NaN/Inf guard in finish, so this is a bug.
		panic(fmt.Sprintf("nicperf: encode verdict: %v", err))
	}
	fmt.Fprintln(w, string(b))
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return fmt.Errorf("encode %s: %w", path, err)
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
