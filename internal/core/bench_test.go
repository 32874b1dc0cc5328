package core

import (
	"testing"

	"repro/internal/faults"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/workload"
)

// benchPoint runs one full NIC simulation (300 µs warmup + 500 µs measure)
// at the given operating point and reports simulated nanoseconds per wall
// second. These are in-repo speed probes; the repository benchmark
// (bench/run.sh) judges speed changes with paired runs, and the step, tick
// and allocation tests guard the deterministic work they rest on.
func benchPoint(b *testing.B, cfg Config) {
	b.ReportAllocs()
	const simulated = 800 * sim.Microsecond
	for i := 0; i < b.N; i++ {
		n := New(cfg)
		n.AttachWorkload(1472, false)
		n.Run(300*sim.Microsecond, 500*sim.Microsecond)
	}
	simNs := float64(simulated) / float64(sim.Nanosecond) * float64(b.N)
	b.ReportMetric(simNs/b.Elapsed().Seconds(), "sim-ns/s")
}

// BenchmarkSimSpeed6x166 measures the paper's six-core 166 MHz RMW-enhanced
// operating point (the "RMW reaches line rate" configuration).
func BenchmarkSimSpeed6x166(b *testing.B) {
	benchPoint(b, RMWConfig())
}

// hostileRSS builds the hostile-rss operating point: 4 flow-steered receive
// queues under mixed bursty traffic on 64 flows, the reference fault plan
// starting at warmup, a survival SLO and latency observation.
func hostileRSS(tb testing.TB, warmup sim.Picoseconds) *NIC {
	cfg := DefaultConfig()
	cfg.RxQueues, cfg.Steering = 4, "flow"
	n := New(cfg)
	ts, err := workload.ParseTraffic("mixed,burst,flows=64,seed=1")
	if err != nil {
		tb.Fatal(err)
	}
	if err := n.AttachTraffic(1472, ts, false); err != nil {
		tb.Fatal(err)
	}
	if err := n.AttachFaults(faults.Reference(warmup)); err != nil {
		tb.Fatal(err)
	}
	slo, err := ParseSLO("")
	if err != nil {
		tb.Fatal(err)
	}
	if err := n.AttachSLO(slo); err != nil {
		tb.Fatal(err)
	}
	n.EnableObs(obs.Config{})
	return n
}

// BenchmarkSimSpeedFaulted measures the hostile-rss point under the
// reference fault plan, whose windows all close within the measurement.
func BenchmarkSimSpeedFaulted(b *testing.B) {
	b.ReportAllocs()
	const warmup, measure = 300 * sim.Microsecond, 500 * sim.Microsecond
	for i := 0; i < b.N; i++ {
		n := hostileRSS(b, warmup)
		n.Run(warmup, measure)
	}
	simNs := float64(warmup+measure) / float64(sim.Nanosecond) * float64(b.N)
	b.ReportMetric(simNs/b.Elapsed().Seconds(), "sim-ns/s")
}

// BenchmarkSimSpeed8x175 measures the eight-core 175 MHz software-only point,
// the largest Figure 7 grid column and the heaviest gated configuration.
func BenchmarkSimSpeed8x175(b *testing.B) {
	cfg := DefaultConfig()
	cfg.Cores = 8
	cfg.CPUMHz = 175
	benchPoint(b, cfg)
}
