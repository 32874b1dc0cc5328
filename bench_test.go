package repro

import (
	"context"
	"testing"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/ilp"
	"repro/internal/smpcache"
	"repro/internal/sweep"
)

// The benchmarks regenerate each of the paper's tables and figures once per
// iteration (run with -benchtime=1x for a single regeneration) and attach
// the headline measured quantity as a custom metric.

// BenchmarkTable1 recomputes the ideal per-frame task costs.
func BenchmarkTable1(b *testing.B) {
	var mips float64
	for i := 0; i < b.N; i++ {
		rows := experiments.Table1()
		mips = 0
		for _, r := range rows {
			mips += r.Instructions
		}
	}
	b.ReportMetric(mips, "instr/frame-pair")
}

// BenchmarkTable2 runs the ILP limit grid over the firmware trace.
func BenchmarkTable2(b *testing.B) {
	tr := experiments.Table2Trace(100000)
	b.ResetTimer()
	var anchor float64
	for i := 0; i < b.N; i++ {
		grid := ilp.Table2(tr)
		anchor = grid[0][4].IPC() // IO-1, stalls, NoBP: the cores' own model
	}
	b.ReportMetric(anchor, "IO-1-NoBP-IPC")
}

// BenchmarkFigure3 captures metadata traces and sweeps MESI cache sizes.
func BenchmarkFigure3(b *testing.B) {
	var pts []smpcache.SweepPoint
	for i := 0; i < b.N; i++ {
		pts = experiments.Figure3(experiments.Quick, 300000)
	}
	b.ReportMetric(pts[len(pts)-1].HitRatio, "hit-ratio-32KB")
}

// BenchmarkTable3 measures the six-core 200 MHz computation breakdown.
func BenchmarkTable3(b *testing.B) {
	var r core.Report
	for i := 0; i < b.N; i++ {
		r = experiments.Run(core.DefaultConfig(), 1472, experiments.Quick)
	}
	b.ReportMetric(r.IPC, "IPC")
	b.ReportMetric(r.FracLoad, "load-stalls/cycle")
}

// BenchmarkTable4 measures the memory-system bandwidths.
func BenchmarkTable4(b *testing.B) {
	var r core.Report
	for i := 0; i < b.N; i++ {
		r = experiments.Run(core.DefaultConfig(), 1472, experiments.Quick)
	}
	b.ReportMetric(r.ScratchGbps, "scratchpad-Gbps")
	b.ReportMetric(r.FrameMemGbps, "frame-mem-Gbps")
}

// BenchmarkTable5 compares per-packet instruction profiles of the two
// ordering implementations.
func BenchmarkTable5(b *testing.B) {
	var c experiments.OrderingComparison
	for i := 0; i < b.N; i++ {
		c = experiments.CompareOrdering(experiments.Quick)
	}
	red := 1 - c.RMW.Send.DispOrder.InstrPerFrm/c.SW.Send.DispOrder.InstrPerFrm
	b.ReportMetric(100*red, "send-ordering-instr-reduction-%")
}

// BenchmarkTable6 compares per-packet cycles at 200 vs 166 MHz.
func BenchmarkTable6(b *testing.B) {
	var c experiments.OrderingComparison
	for i := 0; i < b.N; i++ {
		c = experiments.CompareOrdering(experiments.Quick)
	}
	red := 1 - c.RMW.Send.Total.CyclesPerFrm/c.SW.Send.Total.CyclesPerFrm
	b.ReportMetric(100*red, "send-cycle-reduction-%")
	b.ReportMetric(c.RMW.LineFraction, "rmw-166MHz-line-fraction")
}

// BenchmarkFigure7 runs a reduced frequency/core-count sweep (the full grid
// is cmd/nicbench -figure 7).
func BenchmarkFigure7(b *testing.B) {
	var pts []experiments.Fig7Point
	for i := 0; i < b.N; i++ {
		pts = experiments.Figure7(experiments.Quick, []int{1, 4, 6}, []float64{175, 200})
	}
	for _, p := range pts {
		if p.Cores == 6 && p.MHz == 200 {
			b.ReportMetric(p.Fraction, "6x200-line-fraction")
		}
	}
}

// BenchmarkFigure8 runs a reduced datagram-size sweep for both orderings.
func BenchmarkFigure8(b *testing.B) {
	var pts []experiments.Fig8Point
	for i := 0; i < b.N; i++ {
		pts = experiments.Figure8(experiments.Quick, []int{1472, 400})
	}
	b.ReportMetric(pts[len(pts)-1].SWFPS/1e6, "small-frame-Mfps")
}

// BenchmarkAblationBanks sweeps scratchpad banking.
func BenchmarkAblationBanks(b *testing.B) {
	var rs []core.Report
	for i := 0; i < b.N; i++ {
		rs = experiments.AblationBanks(experiments.Quick, []int{1, 4})
	}
	b.ReportMetric(rs[0].FracConflict, "1-bank-conflicts/cycle")
	b.ReportMetric(rs[1].FracConflict, "4-bank-conflicts/cycle")
}

// BenchmarkAblationTaskParallel compares the firmware organizations.
func BenchmarkAblationTaskParallel(b *testing.B) {
	var fp, tp []core.Report
	for i := 0; i < b.N; i++ {
		fp, tp = experiments.AblationTaskParallel(experiments.Quick, []int{6}, 150)
	}
	b.ReportMetric(fp[0].TotalGbps, "frame-parallel-Gbps")
	b.ReportMetric(tp[0].TotalGbps, "task-parallel-Gbps")
}

// BenchmarkAblationPipeline measures the store buffer's value: the §4 design
// choice that stores must not stall the pipeline.
func BenchmarkAblationPipeline(b *testing.B) {
	// The simulator always buffers one store (as the paper's pipeline
	// does); the observable is the absence of store-induced stalls at line
	// rate, visible as conflict stalls staying near the paper's 0.05.
	var r core.Report
	for i := 0; i < b.N; i++ {
		r = experiments.Run(core.DefaultConfig(), 1472, experiments.Quick)
	}
	b.ReportMetric(r.FracConflict, "conflicts/cycle")
}

// BenchmarkSimulatorThroughput measures raw simulator speed: simulated CPU
// cycles per wall second for the default six-core build.
func BenchmarkSimulatorThroughput(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.Run(core.DefaultConfig(), 1472, experiments.Quick)
	}
	cycles := experiments.Quick.Measure.Seconds() * 200e6 * float64(b.N)
	b.ReportMetric(cycles/b.Elapsed().Seconds(), "sim-cycles/s")
}

// benchSweep runs a reduced Figure 7 grid through the sweep harness with the
// given worker count. The parallel/serial pair measures the harness's
// scaling on the machine it runs on.
func benchSweep(b *testing.B, workers int) {
	jobs := experiments.Figure7Jobs(experiments.Quick, []int{1, 2, 4, 6}, []float64{150, 200})
	r := &sweep.Runner{Run: experiments.Simulate, Workers: workers}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := r.Sweep(context.Background(), jobs)
		if err != nil {
			b.Fatal(err)
		}
		for _, x := range res {
			if !x.OK() {
				b.Fatalf("%s: %s", x.ID, x.Err)
			}
		}
	}
	b.ReportMetric(float64(len(jobs)*b.N)/b.Elapsed().Seconds(), "jobs/s")
}

// BenchmarkSweepSerial is the one-worker baseline for the harness.
func BenchmarkSweepSerial(b *testing.B) { benchSweep(b, 1) }

// BenchmarkSweepParallel runs the same grid with a GOMAXPROCS-sized pool;
// speedup over BenchmarkSweepSerial tracks available cores.
func BenchmarkSweepParallel(b *testing.B) { benchSweep(b, 0) }
