package main

import (
	"math"
	"sort"
	"time"
)

// metricDef declares one reported metric. BENCHMARK.json at the repository
// root declares the same names, units and directions (plus regression
// bounds); bench_test.go fails when the two drift apart.
type metricDef struct {
	name, unit, better string
	// ref names the reference-computation samples (refOps, refSetup) that
	// a host-time metric of the untraced run is expressed against; empty
	// for every other metric. See summarize.
	ref string
}

// Sample names of the reference computation's times (ms), taken next to
// the ops and next to the set-up processes.
const (
	refOps   = "ref.ops"
	refSetup = "ref.setup"
)

// endToEnd are the untraced run's metrics, reported on every workload: the
// simulator's host cost (set-up, speed, op wall, allocation, heap), which
// depends on the machine, and the simulated results (line fraction, frame
// rate, delivery, latency), which are exact for a seed.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", refSetup},
	{"sim_ns_per_wall_ms", "sim-ns/wall-ms", "higher", refOps},
	{"op_wall_s", "s", "lower", refOps},
	{"alloc_bytes_per_sim_us", "B/sim-us", "lower", ""},
	{"live_heap_mb", "MB", "lower", ""},
	{"line_fraction", "fraction", "higher", ""},
	{"mfps", "Mfps", "higher", ""},
	{"delivered_frac", "fraction", "higher", ""},
	{"recv_p50_us", "sim-us", "lower", ""},
	{"recv_p99_us", "sim-us", "lower", ""},
	{"send_p99_us", "sim-us", "lower", ""},
}

// perLayer are the traced run's metrics: host time per simulator layer,
// measured by timing calls into public functions, and the simulated
// per-layer counts of the untraced report.
var perLayer = []metricDef{
	{"sim.steps_per_sim_us", "steps/sim-us", "lower", ""},
	{"sim.step_ns_static", "ns", "lower", ""},
	{"sim.step_ns_generic", "ns", "lower", ""},
	{"sim.self_frac", "fraction", "lower", ""},
	{"cpu.ns_per_tick", "ns", "lower", ""},
	{"cpu.self_frac", "fraction", "lower", ""},
	{"firmware.nextwork_calls_per_sim_us", "calls/sim-us", "lower", ""},
	{"firmware.nextwork_ns_per_call", "ns", "lower", ""},
	{"firmware.nextwork_frac", "fraction", "lower", ""},
	{"firmware.nextwork_useful_frac", "fraction", "higher", ""},
	{"sdram.ns_per_tick", "ns", "lower", ""},
	{"sdram.self_frac", "fraction", "lower", ""},
	{"mac.ns_per_tick", "ns", "lower", ""},
	{"mac.self_frac", "fraction", "lower", ""},
	{"host.ns_per_tick", "ns", "lower", ""},
	{"host.self_frac", "fraction", "lower", ""},
	{"faults.self_frac", "fraction", "lower", ""},
	{"workload.source_calls_per_sim_us", "calls/sim-us", "lower", ""},
	{"workload.source_ns_per_call", "ns", "lower", ""},
	{"workload.source_frac", "fraction", "lower", ""},
	{"core.build_ms", "ms", "lower", ""},
	{"core.warmup_s", "s", "lower", ""},
	{"gc.cycles_per_sim_ms", "cycles/sim-ms", "lower", ""},
	{"gc.pause_frac", "fraction", "lower", ""},
	{"alloc_objects_per_sim_us", "objects/sim-us", "lower", ""},
	{"sweep.job_wall_s_p50", "s", "lower", ""},
	{"sweep.job_wall_s_p90", "s", "lower", ""},
	{"sweep.job_wall_s_max", "s", "lower", ""},
	{"sweep.worker_busy_frac", "fraction", "higher", ""},
	{"trace.clock_read_ns", "ns", "lower", ""},
	{"trace.overhead_frac", "fraction", "lower", ""},
	{"trace.closure_error_frac", "fraction", "lower", ""},
	{"cpu.ipc", "instr/cycle", "higher", ""},
	{"cpu.frac_load", "fraction", "lower", ""},
	{"cpu.frac_conflict", "fraction", "lower", ""},
	{"cpu.frac_imiss", "fraction", "lower", ""},
	{"cpu.frac_idle_poll", "fraction", "lower", ""},
	{"cpu.spin_loads_per_frame", "loads/frame", "lower", ""},
	{"firmware.send_cycles_per_frame", "cycles/frame", "lower", ""},
	{"firmware.recv_cycles_per_frame", "cycles/frame", "lower", ""},
	{"mem.scratch_gbps", "Gb/s", "higher", ""},
	{"mem.frame_mem_gbps", "Gb/s", "higher", ""},
	{"mem.sdram_utilization", "fraction", "lower", ""},
	{"mem.imem_utilization", "fraction", "lower", ""},
	{"assist.admission_reject_frac", "fraction", "lower", ""},
	{"assist.rss_queue_skew", "ratio", "lower", ""},
	{"host.recv_ring_max_occupancy", "frames", "lower", ""},
	{"obs.recv_worst_stage_mean_us", "sim-us", "lower", ""},
	{"faults.injected_total", "count", "lower", ""},
	{"faults.takeovers", "count", "lower", ""},
}

// samples collects the measured values of each metric in one run.
type samples map[string][]float64

func (s samples) add(name string, v ...float64) { s[name] = append(s[name], v...) }

// summary is one metric's distribution over a run. Value is the number the
// run reports; Median, Q1 and Q3 describe the raw samples.
type summary struct {
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Value  float64 `json:"value"`
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
	N      int     `json:"n"`

	// Host-time metrics only: the raw best decile and the machine's slowness
	// against the reference's quiet speed (best-decile reference time over
	// refNominal; above 1 means slower).
	Raw      float64 `json:"raw_best_decile,omitempty"`
	Slowness float64 `json:"slowness,omitempty"`
}

// summarize describes vs. For most metrics the value is the median. A
// host-time metric's value is its best decile (other load only ever adds
// time to a deterministic computation, so the fast tail repeats where the
// median drifts), divided by the machine's slowness measured with the
// reference computation in refs: the value the recording machine would
// give when quiet.
func summarize(def metricDef, vs, refs []float64) summary {
	q1, med, q3 := quartiles(vs)
	s := summary{Unit: def.unit, Better: def.better, Value: med, Median: med, Q1: q1, Q3: q3, N: len(vs)}
	if def.ref == "" {
		return s
	}
	s.Raw = bestDecile(vs, def.better)
	s.Slowness = bestDecile(refs, "lower") / (float64(refNominal) / float64(time.Millisecond))
	if def.better == "higher" {
		s.Value = s.Raw * s.Slowness
	} else {
		s.Value = s.Raw / s.Slowness
	}
	return s
}

// bestDecile is the nearest-rank 10th percentile of vs counted from the
// best end: the fastest tenth of the samples lies at or beyond it. With
// fewer than ten samples it is the best sample.
func bestDecile(vs []float64, better string) float64 {
	if better == "higher" {
		return percentile(vs, 0.9)
	}
	return percentile(vs, 0.1)
}

// quartiles returns the first quartile, median and third quartile of vs by
// the "exclusive" method of Python's statistics.quantiles(vs, n=4), with
// indices clamped so that one or two samples also give an answer. Empty
// input gives NaN.
func quartiles(vs []float64) (q1, med, q3 float64) {
	if len(vs) == 0 {
		return math.NaN(), math.NaN(), math.NaN()
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	n := len(s)
	at := func(i int) float64 {
		j, delta := i*(n+1)/4, i*(n+1)%4
		lo, hi := j-1, j
		if lo < 0 {
			lo = 0
		}
		if hi > n-1 {
			hi = n - 1
		}
		return (s[lo]*float64(4-delta) + s[hi]*float64(delta)) / 4
	}
	if n%2 == 1 {
		med = s[n/2]
	} else {
		med = (s[n/2-1] + s[n/2]) / 2
	}
	return at(1), med, at(3)
}

// median of vs; NaN when empty.
func median(vs []float64) float64 {
	_, m, _ := quartiles(vs)
	return m
}

// percentile returns the nearest-rank p-quantile (0 < p ≤ 1) of vs.
func percentile(vs []float64, p float64) float64 {
	if len(vs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	k := int(math.Ceil(p*float64(len(s)))) - 1
	if k < 0 {
		k = 0
	}
	return s[k]
}
