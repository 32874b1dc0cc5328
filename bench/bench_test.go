package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/experiments"
	"repro/internal/sim"
	"repro/internal/sweep"
)

// TestMain lets the test binary serve as a set-up child, as the benchmark
// binary does.
func TestMain(m *testing.M) {
	if spec := os.Getenv(setupEnv); spec != "" {
		os.Exit(setupChild(spec, os.Stdout))
	}
	os.Exit(m.Run())
}

// gateBaseline writes the committed gate baselines restricted to the
// robustness suite's points (the tiny gate-sweep runs only that suite, the
// one whose jobs observe latency), with scale applied to one metric of one
// point when scale is not 1.
func gateBaseline(t *testing.T, scale float64) string {
	t.Helper()
	bf, err := sweep.LoadBaselines(filepath.Join("..", "baselines", "gate.json"))
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]bool{}
	for _, j := range experiments.RobustnessJobs(experiments.Quick) {
		want[j.Spec.Hash()] = true
	}
	var kept []sweep.Baseline
	for _, b := range bf.Baselines {
		if want[b.Hash] {
			kept = append(kept, b)
		}
	}
	if len(kept) != len(want) {
		t.Fatalf("gate.json pins %d of the robustness suite's %d points", len(kept), len(want))
	}
	if scale != 1 {
		kept[0].Metrics["line_fraction"] *= scale
	}
	bf.Baselines = kept
	path := filepath.Join(t.TempDir(), "gate.json")
	if err := sweep.WriteBaselines(path, bf); err != nil {
		t.Fatal(err)
	}
	return path
}

// tiny shrinks a workload to one timed op of well under a second, and the
// gate sweep to the robustness suite.
func tiny(t *testing.T, name string, trace bool, baseline string) options {
	o := defaultOptions(name, 1, 0, trace)
	o.traceDir = t.TempDir()
	o.baseline = baseline
	o.window = window{warmup: 100 * sim.Microsecond, measure: 200 * sim.Microsecond}
	o.suites = []string{"robustness"}
	o.setups = 1
	o.minOps = 1
	return o
}

func runTiny(t *testing.T, o options) (*result, string) {
	t.Helper()
	res, err := runWorkload(o, &bytes.Buffer{})
	if err != nil {
		t.Fatalf("%s: %v", o.workload, err)
	}
	var out bytes.Buffer
	res.print(&out)
	return res, out.String()
}

// declared reads BENCHMARK.json's metric lists.
func declared(t *testing.T) (endToEnd, perLayer []map[string]any) {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var f struct {
		EndToEnd []map[string]any `json:"end_to_end"`
		PerLayer []map[string]any `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &f); err != nil {
		t.Fatal(err)
	}
	return f.EndToEnd, f.PerLayer
}

// checkPrinted asserts that the printed output carries every declared
// metric exactly once, with its declared unit, in both the metric lines and
// the final JSON line.
func checkPrinted(t *testing.T, workload, out string, decl []map[string]any) {
	t.Helper()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	var v verdict
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &v); err != nil {
		t.Fatalf("%s: last line is not the JSON verdict: %v", workload, err)
	}
	if len(v.Metrics) != len(decl) {
		t.Errorf("%s: %d metrics printed, %d declared", workload, len(v.Metrics), len(decl))
	}
	for _, d := range decl {
		name, unit := d["name"].(string), d["unit"].(string)
		m, ok := v.Metrics[name]
		if !ok {
			t.Errorf("%s: declared metric %s not printed", workload, name)
			continue
		}
		if m.Unit != unit {
			t.Errorf("%s: %s printed in %q, declared %q", workload, name, m.Unit, unit)
		}
		if math.IsNaN(m.Value) {
			t.Errorf("%s: %s is NaN", workload, name)
		}
		prefix := workload + " " + name + " "
		count := 0
		for _, l := range lines {
			if strings.HasPrefix(l, prefix) {
				count++
				if !strings.Contains(l, " "+unit+" ") {
					t.Errorf("%s: line %q lacks unit %q", workload, l, unit)
				}
			}
		}
		if count != 1 {
			t.Errorf("%s: %s printed on %d lines, want 1", workload, name, count)
		}
	}
}

// TestDeclarationsMatchBenchmarkFile keeps the code's metric tables and
// BENCHMARK.json in step: same names, units and directions, same order.
func TestDeclarationsMatchBenchmarkFile(t *testing.T) {
	e2e, layers := declared(t)
	for _, c := range []struct {
		file []map[string]any
		code []metricDef
	}{{e2e, endToEnd}, {layers, perLayer}} {
		if len(c.file) != len(c.code) {
			t.Fatalf("BENCHMARK.json declares %d metrics, the code %d", len(c.file), len(c.code))
		}
		for i, d := range c.code {
			f := c.file[i]
			if f["name"] != d.name || f["unit"] != d.unit || f["better"] != d.better {
				t.Errorf("metric %d: file %v %v %v, code %s %s %s", i, f["name"], f["unit"], f["better"], d.name, d.unit, d.better)
			}
		}
	}
}

// TestEveryWorkloadPrintsDeclaredMetrics runs every workload untraced twice
// and traced once at a tiny length: each run prints every declared metric
// once with its unit, the untraced runs are correct, and the simulated
// results and report digests repeat exactly.
func TestEveryWorkloadPrintsDeclaredMetrics(t *testing.T) {
	e2e, layers := declared(t)
	baseline := gateBaseline(t, 1)
	simulated := []string{"line_fraction", "mfps", "delivered_frac", "recv_p50_us", "recv_p99_us", "send_p99_us"}
	for _, name := range workloadNames {
		first, out := runTiny(t, tiny(t, name, false, baseline))
		checkPrinted(t, name, out, e2e)
		if !first.Correct {
			t.Errorf("%s: untraced run incorrect: %v", name, first.Problems)
		}
		second, _ := runTiny(t, tiny(t, name, false, baseline))
		if first.Digest != second.Digest {
			t.Errorf("%s: digest %s then %s", name, first.Digest, second.Digest)
		}
		for _, m := range simulated {
			if a, b := first.Metrics[m].Value, second.Metrics[m].Value; a != b {
				t.Errorf("%s: simulated %s = %v then %v", name, m, a, b)
			}
		}
		to := tiny(t, name, true, baseline)
		traced, out := runTiny(t, to)
		checkPrinted(t, name, out, layers)
		if traced.Digest != first.Digest {
			t.Errorf("%s: traced digest %s, untraced %s", name, traced.Digest, first.Digest)
		}
		if traced.Failed > 0 {
			t.Errorf("%s: traced ops failed (passivity): %v", name, traced.Problems)
		}
		for _, f := range []string{"spans.json", "layers.json", "cpu.pprof"} {
			if _, err := os.Stat(filepath.Join(to.traceDir, f)); err != nil {
				t.Errorf("%s: %v", name, err)
			}
		}
	}
}

// TestPerturbedGateBaselineFails moves one committed gate metric by 10%:
// every gate pass must then fail its baseline check.
func TestPerturbedGateBaselineFails(t *testing.T) {
	res, _ := runTiny(t, tiny(t, gateSweep, false, gateBaseline(t, 1.1)))
	if res.Failed == 0 || res.Correct {
		t.Fatalf("perturbed baseline: failed %d of %d, correct %v", res.Failed, res.Attempted, res.Correct)
	}
	if res.Failed != res.Attempted {
		t.Errorf("perturbed baseline: %d of %d passes failed, want all", res.Failed, res.Attempted)
	}
}

func TestStatistics(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, med, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || med != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles(1..10) = %v %v %v, want 2.75 5.5 8.25", q1, med, q3)
	}
	// statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
	q1, med, q3 = quartiles([]float64{1, 2, 3, 4, 5})
	if q1 != 1.5 || med != 3 || q3 != 4.5 {
		t.Errorf("quartiles(1..5) = %v %v %v, want 1.5 3 4.5", q1, med, q3)
	}
	nominal := float64(refNominal) / float64(time.Millisecond)
	for _, c := range []struct {
		def       metricDef
		slowness  float64
		wantValue float64
	}{
		{metricDef{"op_wall_s", "s", "lower", refOps}, 1, 1},
		{metricDef{"op_wall_s", "s", "lower", refOps}, 2, 0.5},
		{metricDef{"sim_ns_per_wall_ms", "sim-ns/wall-ms", "higher", refOps}, 2, 10},
	} {
		vs := []float64{1, 1, 1}
		if c.def.better == "higher" {
			vs = []float64{5, 5, 5}
		}
		s := summarize(c.def, vs, []float64{c.slowness * nominal})
		if s.Value != c.wantValue || s.Slowness != c.slowness {
			t.Errorf("%s at slowness %v: value %v (slowness %v), want %v", c.def.name, c.slowness, s.Value, s.Slowness, c.wantValue)
		}
	}
	if got := bestDecile([]float64{5, 1, 4, 2, 3}, "lower"); got != 1 {
		t.Errorf("bestDecile lower = %v, want 1", got)
	}
	if got := bestDecile([]float64{5, 1, 4, 2, 3}, "higher"); got != 5 {
		t.Errorf("bestDecile higher = %v, want 5", got)
	}
}
