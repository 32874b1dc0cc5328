package experiments

import (
	"context"
	"encoding/json"
	"fmt"
	"io"

	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/firmware"
	"repro/internal/sim"
	"repro/internal/smpcache"
	"repro/internal/sweep"
)

// SpecFor declares the sweep job spec for one controller configuration,
// workload, and budget.
func SpecFor(cfg core.Config, udpSize int, b Budget) sweep.Spec {
	return sweep.Spec{
		Kind:      sweep.KindNIC,
		Cfg:       cfg,
		UDPSize:   udpSize,
		WarmupPs:  uint64(b.Warmup),
		MeasurePs: uint64(b.Measure),
	}
}

// ConfigFor returns the controller configuration a spec declares, failing
// when Validate rejects it.
func ConfigFor(s sweep.Spec) (core.Config, error) {
	if err := s.Cfg.Validate(); err != nil {
		return core.Config{}, fmt.Errorf("experiments: invalid spec: %w", err)
	}
	return s.Cfg, nil
}

// BudgetOf recovers the simulation budget a spec declares.
func BudgetOf(s sweep.Spec) Budget {
	return Budget{Warmup: sim.Picoseconds(s.WarmupPs), Measure: sim.Picoseconds(s.MeasurePs)}
}

// Simulate is the sweep.RunFunc that executes one job on the cycle
// simulator. It honors ctx: a cancellation stops the simulation engine via
// a watchdog goroutine and fails the job.
func Simulate(ctx context.Context, j sweep.Job) (sweep.Outcome, error) {
	b := BudgetOf(j.Spec)
	if b.Measure == 0 {
		return sweep.Outcome{}, fmt.Errorf("experiments: job %s: zero measure window", j.ID)
	}
	cfg, err := ConfigFor(j.Spec)
	if err != nil {
		return sweep.Outcome{}, err
	}
	switch j.Spec.Kind {
	case sweep.KindNIC, "":
		r, err := simulate(ctx, cfg, j.Spec, b)
		if err != nil {
			return sweep.Outcome{}, err
		}
		return sweep.Outcome{Report: &r}, nil
	case sweep.KindFig3:
		pts, r, err := figure3Collect(ctx, cfg, j.Spec.UDPSize, b, j.Spec.MaxRefs)
		if err != nil {
			return sweep.Outcome{}, err
		}
		aux, err := json.Marshal(pts)
		if err != nil {
			return sweep.Outcome{}, err
		}
		return sweep.Outcome{Report: &r, Aux: aux}, nil
	default:
		return sweep.Outcome{}, fmt.Errorf("experiments: unknown job kind %q", j.Spec.Kind)
	}
}

// simulate runs one spec with cooperative cancellation, attaching the
// adversarial traffic class, fault plan, and SLO the spec declares (if any)
// before the run starts.
func simulate(ctx context.Context, cfg core.Config, s sweep.Spec, b Budget) (core.Report, error) {
	n := core.New(cfg)
	if s.Traffic != nil {
		if err := n.AttachTraffic(s.UDPSize, *s.Traffic, false); err != nil {
			return core.Report{}, err
		}
	} else {
		n.AttachWorkload(s.UDPSize, false)
	}
	if s.Faults != nil {
		if err := n.AttachFaults(*s.Faults); err != nil {
			return core.Report{}, err
		}
	}
	if s.SLO != nil {
		if err := n.AttachSLO(*s.SLO); err != nil {
			return core.Report{}, err
		}
	}
	defer watchdog(ctx, n.Engine)()
	r := n.Run(b.Warmup, b.Measure)
	if ctx != nil && ctx.Err() != nil {
		return core.Report{}, ctx.Err()
	}
	return r, nil
}

// watchdog stops the engine when ctx is canceled; the returned release
// function ends the watch.
func watchdog(ctx context.Context, e *sim.Engine) (release func()) {
	if ctx == nil || ctx.Done() == nil {
		return func() {}
	}
	done := make(chan struct{})
	go func() {
		select {
		case <-ctx.Done():
			e.Stop()
		case <-done:
		}
	}()
	return func() { close(done) }
}

// Fig3Points decodes the cache-sweep points from a Figure 3 result's Aux.
func Fig3Points(res sweep.Result) ([]smpcache.SweepPoint, error) {
	if !res.OK() {
		return nil, fmt.Errorf("experiments: job %s failed: %s", res.ID, res.Err)
	}
	var pts []smpcache.SweepPoint
	if err := json.Unmarshal(res.Aux, &pts); err != nil {
		return nil, fmt.Errorf("experiments: job %s: decode fig3 aux: %w", res.ID, err)
	}
	return pts, nil
}

// ReportsOf extracts the reports of a homogeneous sweep, failing on any
// failed job.
func ReportsOf(results []sweep.Result) ([]core.Report, error) {
	out := make([]core.Report, len(results))
	for i, r := range results {
		if !r.OK() {
			return nil, fmt.Errorf("experiments: job %s failed: %s", r.ID, r.Err)
		}
		if r.Report == nil {
			return nil, fmt.Errorf("experiments: job %s has no report", r.ID)
		}
		out[i] = *r.Report
	}
	return out, nil
}

// ---------------------------------------------------------------------------
// Job enumerations: every sweep in the repo as declarative job lists.
// ---------------------------------------------------------------------------

// Figure7Jobs enumerates the cores × MHz scaling grid.
func Figure7Jobs(b Budget, coreCounts []int, mhz []float64) []sweep.Job {
	var jobs []sweep.Job
	for _, c := range coreCounts {
		for _, f := range mhz {
			cfg := core.DefaultConfig()
			cfg.Cores = c
			cfg.CPUMHz = f
			jobs = append(jobs, sweep.Job{
				ID:   fmt.Sprintf("figure7/c%d-f%g", c, f),
				Spec: SpecFor(cfg, 1472, b),
			})
		}
	}
	return jobs
}

// Figure8Jobs enumerates the datagram-size sweep: software-only and
// RMW-enhanced per size, in that order.
func Figure8Jobs(b Budget, sizes []int) []sweep.Job {
	var jobs []sweep.Job
	for _, size := range sizes {
		jobs = append(jobs,
			sweep.Job{ID: fmt.Sprintf("figure8/s%d-sw", size), Spec: SpecFor(core.DefaultConfig(), size, b)},
			sweep.Job{ID: fmt.Sprintf("figure8/s%d-rmw", size), Spec: SpecFor(core.RMWConfig(), size, b)},
		)
	}
	return jobs
}

// Figure3Jobs is the coherence study: one traced run plus the cache sweep.
func Figure3Jobs(b Budget, maxRefs int) []sweep.Job {
	s := SpecFor(core.DefaultConfig(), 1472, b)
	s.Kind = sweep.KindFig3
	s.MaxRefs = maxRefs
	return []sweep.Job{{ID: "figure3/trace", Spec: s}}
}

// OrderingJobs is the Table 5/6 comparison: the software-only and
// RMW-enhanced operating points.
func OrderingJobs(b Budget) []sweep.Job {
	return []sweep.Job{
		{ID: "ordering/sw-200", Spec: SpecFor(core.DefaultConfig(), 1472, b)},
		{ID: "ordering/rmw-166", Spec: SpecFor(core.RMWConfig(), 1472, b)},
	}
}

// DefaultJobs is the single default operating point (Tables 3 and 4).
func DefaultJobs(b Budget) []sweep.Job {
	return []sweep.Job{{ID: "default/c6-f200", Spec: SpecFor(core.DefaultConfig(), 1472, b)}}
}

// AblationBanksJobs sweeps scratchpad bank counts.
func AblationBanksJobs(b Budget, banks []int) []sweep.Job {
	var jobs []sweep.Job
	for _, nb := range banks {
		cfg := core.DefaultConfig()
		cfg.ScratchpadBanks = nb
		jobs = append(jobs, sweep.Job{ID: fmt.Sprintf("ablation-a/banks%d", nb), Spec: SpecFor(cfg, 1472, b)})
	}
	return jobs
}

// AblationTaskParallelJobs compares firmware organizations across core
// counts: frame-parallel and task-parallel per count, in that order.
func AblationTaskParallelJobs(b Budget, coreCounts []int, mhz float64) []sweep.Job {
	var jobs []sweep.Job
	for _, c := range coreCounts {
		cfg := core.DefaultConfig()
		cfg.Cores = c
		cfg.CPUMHz = mhz
		jobs = append(jobs, sweep.Job{ID: fmt.Sprintf("ablation-b/c%d-frame", c), Spec: SpecFor(cfg, 1472, b)})
		cfg.Parallelism = firmware.TaskParallel
		jobs = append(jobs, sweep.Job{ID: fmt.Sprintf("ablation-b/c%d-task", c), Spec: SpecFor(cfg, 1472, b)})
	}
	return jobs
}

// FaultJobs is the robustness study: the paper's two operating points
// (6×200 MHz software-only, 6×166 MHz RMW-enhanced), each run fault-free and
// then under the reference fault plan, which injects at least one event of
// every fault class after warmup. The pairing lets the printer report
// recovery cost as a fraction of fault-free throughput.
func FaultJobs(b Budget) []sweep.Job {
	plan := faults.Reference(b.Warmup)
	withFaults := func(s sweep.Spec) sweep.Spec {
		p := plan
		s.Faults = &p
		return s
	}
	swSpec := SpecFor(core.DefaultConfig(), 1472, b)
	rmwSpec := SpecFor(core.RMWConfig(), 1472, b)
	return []sweep.Job{
		{ID: "faults/sw-200-clean", Spec: swSpec},
		{ID: "faults/sw-200-ref", Spec: withFaults(swSpec)},
		{ID: "faults/rmw-166-clean", Spec: rmwSpec},
		{ID: "faults/rmw-166-ref", Spec: withFaults(rmwSpec)},
	}
}

// PrintFaults renders the robustness study: per operating point, fault-free
// vs faulted throughput, the injected event totals, and the recovery actions
// the firmware took. Results arrive interleaved (clean, faulted per point).
func PrintFaults(w io.Writer, results []sweep.Result) error {
	rs, err := ReportsOf(results)
	if err != nil {
		return err
	}
	if len(rs)%2 != 0 {
		return fmt.Errorf("experiments: fault study needs paired reports, got %d", len(rs))
	}
	fmt.Fprintln(w, "Robustness: reference fault plan vs fault-free, per operating point")
	for i := 0; i < len(rs); i += 2 {
		clean, faulted := rs[i], rs[i+1]
		frac := 0.0
		if clean.TotalGbps > 0 {
			frac = faulted.TotalGbps / clean.TotalGbps
		}
		fmt.Fprintf(w, "  %-22s clean %6.2f Gb/s | faulted %6.2f Gb/s (%5.1f%%) | violations %d\n",
			results[i+1].ID, clean.TotalGbps, faulted.TotalGbps, 100*frac, faulted.InvariantViolations)
		if fr := faulted.Faults; fr != nil {
			fmt.Fprintf(w, "    injected: rx corrupt %d, rx drop %d, dma lost %d, dma dup %d, bank stalls %d, core stall ticks %d\n",
				fr.Injected.RxCorrupt, fr.Injected.RxDrop, fr.Injected.DMALoss,
				fr.Injected.DMADup, fr.Injected.BankStall, fr.Injected.CoreStuck+fr.Injected.CoreSlow)
			fmt.Fprintf(w, "    recovered: dma retried %d recovered %d dup-suppressed %d, takeovers %d (rescued %d), outstanding %d\n",
				fr.DMARetried, fr.DMARecovered, fr.DMADupSuppressed,
				fr.Takeovers, fr.StreamsRescued, fr.OutstandingDMAs)
		}
	}
	return nil
}

// GateJobs is the regression gate: a handful of cheap, diverse points whose
// golden metrics are committed (baselines/gate.json) and checked in CI via
// `nicbench -quick -check`.
func GateJobs(b Budget) []sweep.Job {
	oneBank := core.DefaultConfig()
	oneBank.ScratchpadBanks = 1
	oneCore := core.DefaultConfig()
	oneCore.Cores = 1
	taskPar := core.DefaultConfig()
	taskPar.CPUMHz = 150
	taskPar.Parallelism = firmware.TaskParallel
	return []sweep.Job{
		{ID: "gate/default", Spec: SpecFor(core.DefaultConfig(), 1472, b)},
		{ID: "gate/rmw", Spec: SpecFor(core.RMWConfig(), 1472, b)},
		{ID: "gate/c1-f200", Spec: SpecFor(oneCore, 1472, b)},
		{ID: "gate/banks1", Spec: SpecFor(oneBank, 1472, b)},
		{ID: "gate/s400-sw", Spec: SpecFor(core.DefaultConfig(), 400, b)},
		{ID: "gate/c6-f150-task", Spec: SpecFor(taskPar, 1472, b)},
	}
}

// ---------------------------------------------------------------------------
// Suite registry: what cmd/nicbench runs.
// ---------------------------------------------------------------------------

// Suite is one regenerable artifact: a declarative job list plus a renderer
// for the paper's presentation of the results. Analytic artifacts (Tables 1
// and 2) have no simulation jobs.
type Suite struct {
	Key  string
	Desc string
	// Jobs enumerates the suite's simulations under a budget; may be empty.
	Jobs func(b Budget) []sweep.Job
	// Print renders the human-readable artifact from the suite's results.
	Print func(w io.Writer, results []sweep.Result) error
}

// Suites returns every artifact in presentation order. The job lists of
// overlapping suites (Tables 3-6 share points with Figure 7 and the gate)
// hash identically, so a runner's cache simulates each point once.
func Suites() []Suite {
	noJobs := func(Budget) []sweep.Job { return nil }
	return []Suite{
		{
			Key: "table1", Desc: "ideal per-frame task costs (analytic)",
			Jobs:  noJobs,
			Print: func(w io.Writer, _ []sweep.Result) error { PrintTable1(w); return nil },
		},
		{
			Key: "table2", Desc: "theoretical peak IPC of NIC firmware (trace analysis)",
			Jobs:  noJobs,
			Print: func(w io.Writer, _ []sweep.Result) error { PrintTable2(w, Table2Trace(200000)); return nil },
		},
		{
			Key: "figure3", Desc: "coherent-cache hit ratio vs cache size",
			Jobs: func(b Budget) []sweep.Job { return Figure3Jobs(b, 500000) },
			Print: func(w io.Writer, res []sweep.Result) error {
				pts, err := Fig3Points(res[0])
				if err != nil {
					return err
				}
				PrintFigure3(w, pts)
				return nil
			},
		},
		{
			Key: "figure7", Desc: "throughput vs core count and frequency",
			Jobs: func(b Budget) []sweep.Job { return Figure7Jobs(b, PaperFig7Cores, PaperFig7MHz) },
			Print: func(w io.Writer, res []sweep.Result) error {
				pts, err := Fig7Points(res)
				if err != nil {
					return err
				}
				PrintFigure7(w, pts)
				return nil
			},
		},
		{
			Key: "table3", Desc: "computation breakdown at the default operating point",
			Jobs: DefaultJobs,
			Print: func(w io.Writer, res []sweep.Result) error {
				rs, err := ReportsOf(res)
				if err != nil {
					return err
				}
				PrintTable3(w, rs[0])
				return nil
			},
		},
		{
			Key: "table4", Desc: "bandwidth consumed at the default operating point",
			Jobs: DefaultJobs,
			Print: func(w io.Writer, res []sweep.Result) error {
				rs, err := ReportsOf(res)
				if err != nil {
					return err
				}
				PrintTable4(w, rs[0])
				return nil
			},
		},
		{
			Key: "table5", Desc: "per-packet execution profiles, software-only vs RMW",
			Jobs: OrderingJobs,
			Print: func(w io.Writer, res []sweep.Result) error {
				c, err := orderingComparisonOf(res)
				if err != nil {
					return err
				}
				PrintTable5(w, c)
				return nil
			},
		},
		{
			Key: "table6", Desc: "cycles per packet at the two operating points",
			Jobs: OrderingJobs,
			Print: func(w io.Writer, res []sweep.Result) error {
				c, err := orderingComparisonOf(res)
				if err != nil {
					return err
				}
				PrintTable6(w, c)
				return nil
			},
		},
		{
			Key: "figure8", Desc: "throughput vs UDP datagram size",
			Jobs: func(b Budget) []sweep.Job { return Figure8Jobs(b, PaperFig8Sizes) },
			Print: func(w io.Writer, res []sweep.Result) error {
				pts, err := Fig8Points(res)
				if err != nil {
					return err
				}
				PrintFigure8(w, pts)
				return nil
			},
		},
		{
			Key: "ablation-a", Desc: "scratchpad banking sweep",
			Jobs: func(b Budget) []sweep.Job { return AblationBanksJobs(b, []int{1, 2, 4, 8}) },
			Print: func(w io.Writer, res []sweep.Result) error {
				rs, err := ReportsOf(res)
				if err != nil {
					return err
				}
				PrintAblationBanks(w, rs)
				return nil
			},
		},
		{
			Key: "ablation-b", Desc: "frame-level vs task-level parallel firmware",
			Jobs: func(b Budget) []sweep.Job { return AblationTaskParallelJobs(b, []int{1, 2, 4, 6}, 150) },
			Print: func(w io.Writer, res []sweep.Result) error {
				fp, tp, err := taskParallelPairsOf(res)
				if err != nil {
					return err
				}
				PrintAblationTaskParallel(w, fp, tp)
				return nil
			},
		},
		{
			Key: "faults", Desc: "robustness under the reference fault plan",
			Jobs:  FaultJobs,
			Print: PrintFaults,
		},
		{
			Key: "robustness", Desc: "adversarial traffic matrix with gated latency SLOs (used by -check)",
			Jobs:  RobustnessJobs,
			Print: PrintRobustness,
		},
		{
			Key: "rss", Desc: "RSS multi-queue receive: queue counts × steering policies (used by -check)",
			Jobs:  RSSJobs,
			Print: PrintRSS,
		},
		{
			Key: "gate", Desc: "regression gate points (used by -check)",
			Jobs: GateJobs,
			Print: func(w io.Writer, res []sweep.Result) error {
				rs, err := ReportsOf(res)
				if err != nil {
					return err
				}
				fmt.Fprintln(w, "Gate: regression-gate operating points")
				for i, r := range rs {
					fmt.Fprintf(w, "  %-18s %6.2f Gb/s (%5.1f%% of line), IPC %.3f\n",
						res[i].ID, r.TotalGbps, 100*r.LineFraction, r.IPC)
				}
				return nil
			},
		},
	}
}

// SuiteByKey finds a suite.
func SuiteByKey(key string) (Suite, bool) {
	for _, s := range Suites() {
		if s.Key == key {
			return s, true
		}
	}
	return Suite{}, false
}

// orderingComparisonOf pairs the OrderingJobs results.
func orderingComparisonOf(res []sweep.Result) (OrderingComparison, error) {
	rs, err := ReportsOf(res)
	if err != nil {
		return OrderingComparison{}, err
	}
	if len(rs) != 2 {
		return OrderingComparison{}, fmt.Errorf("experiments: ordering comparison needs 2 reports, got %d", len(rs))
	}
	return OrderingComparison{SW: rs[0], RMW: rs[1]}, nil
}

// taskParallelPairsOf splits the interleaved ablation-b results.
func taskParallelPairsOf(res []sweep.Result) (fp, tp []core.Report, err error) {
	rs, err := ReportsOf(res)
	if err != nil {
		return nil, nil, err
	}
	if len(rs)%2 != 0 {
		return nil, nil, fmt.Errorf("experiments: task-parallel ablation needs paired reports, got %d", len(rs))
	}
	for i := 0; i < len(rs); i += 2 {
		fp = append(fp, rs[i])
		tp = append(tp, rs[i+1])
	}
	return fp, tp, nil
}

// Fig7Points converts Figure 7 sweep results to plot points.
func Fig7Points(results []sweep.Result) ([]Fig7Point, error) {
	rs, err := ReportsOf(results)
	if err != nil {
		return nil, err
	}
	out := make([]Fig7Point, len(rs))
	for i, r := range rs {
		out[i] = Fig7Point{
			Cores:     results[i].Spec.Cfg.Cores,
			MHz:       results[i].Spec.Cfg.CPUMHz,
			TotalGbps: r.TotalGbps,
			Fraction:  r.LineFraction,
		}
	}
	return out, nil
}

// Fig8Points converts the interleaved Figure 8 results (sw, rmw per size)
// to plot points.
func Fig8Points(results []sweep.Result) ([]Fig8Point, error) {
	rs, err := ReportsOf(results)
	if err != nil {
		return nil, err
	}
	if len(rs)%2 != 0 {
		return nil, fmt.Errorf("experiments: figure 8 needs paired reports, got %d", len(rs))
	}
	var out []Fig8Point
	for i := 0; i < len(rs); i += 2 {
		sw, rmw := rs[i], rs[i+1]
		out = append(out, Fig8Point{
			UDPSize:   results[i].Spec.UDPSize,
			SWGbps:    sw.TotalGbps,
			RMWGbps:   rmw.TotalGbps,
			SWFPS:     sw.TxFPS + sw.RxFPS,
			RMWFPS:    rmw.TxFPS + rmw.RxFPS,
			LimitGbps: sw.LineRate,
		})
	}
	return out, nil
}
