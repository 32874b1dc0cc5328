package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"runtime"
	"strings"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/faults"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/sweep"
	"repro/internal/workload"
)

// The four workloads. Three are single operating points run as ops of
// build, warm-up and measurement; gate-sweep is the repository's regression
// gate (nicbench -check) run as passes.
const (
	lineRMW166  = "line-rmw166"
	minframeSW8 = "minframe-sw8"
	hostileRSS  = "hostile-rss"
	gateSweep   = "gate-sweep"
)

var workloadNames = []string{lineRMW166, minframeSW8, hostileRSS, gateSweep}

// point is a single-operating-point workload.
type point struct {
	cfg     core.Config
	udpSize int
	// hostile selects mixed bursty traffic over 64 flows with the seeded
	// reference fault plan, frame-lifecycle observation and a survival SLO;
	// otherwise the paper's clean full-duplex UDP stream runs.
	hostile bool
}

func pointFor(name string) (point, bool) {
	switch name {
	case lineRMW166:
		// The paper's headline point: per-byte layers (SDRAM, DMA, MAC wire)
		// do most of their work, and RMW ordering has no lock spin.
		return point{cfg: core.RMWConfig(), udpSize: 1472}, true
	case minframeSW8:
		// Frame-rate bound with almost no frame bytes: lock-spin ordering on
		// eight cores loads cpu and firmware while SDRAM idles.
		c := core.DefaultConfig()
		c.Cores, c.CPUMHz = 8, 175
		return point{cfg: c, udpSize: 18}, true
	case hostileRSS:
		// The layers the clean points skip: MAC admission rejects, RSS
		// steering, per-queue host rings, fault recovery and the recorder.
		c := core.DefaultConfig()
		c.RxQueues, c.Steering = 4, "flow"
		return point{cfg: c, udpSize: 1472, hostile: true}, true
	}
	return point{}, false
}

// window is the simulated time of one op: a warm-up, then the measurement.
type window struct{ warmup, measure sim.Picoseconds }

// options configure one run. Tests shrink the window, the gate suites and
// the number of set-up processes; the command line uses defaultOptions.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	traceDir string
	baseline string

	window window   // single-point ops
	suites []string // gate-sweep suites, in nicbench -check order
	setups int      // fresh processes timed for setup_s
	minOps int      // timed ops (passes) at least, whatever seconds says
}

func defaultOptions(name string, seed int64, seconds float64, trace bool) options {
	return options{
		workload: name,
		seed:     seed,
		seconds:  seconds,
		trace:    trace,
		traceDir: ".bench_build/trace/" + name,
		baseline: "baselines/gate.json",
		window:   window{warmup: 800 * sim.Microsecond, measure: 2 * sim.Millisecond},
		suites:   []string{"gate", "robustness", "rss"},
		setups:   5,
		minOps:   3,
	}
}

// another reports whether a closed loop that started at start and has run
// i iterations, the last taking last, starts one more: it does until min
// iterations have run, then while one more still fits in seconds.
func another(i, min int, start time.Time, last time.Duration, seconds float64) bool {
	return i < min || time.Since(start).Seconds()+last.Seconds() <= seconds
}

// runState accumulates one run. refs are the reference computations of an
// untraced run (none when traced), one per thread the workload keeps busy,
// timed next to every op and set-up.
type runState struct {
	samples   samples
	attempted int
	failed    int
	problems  []string
	digest    string
	refs      []*speedRef
}

// timeRef runs the reference computations at once, one goroutine each, and
// records their mean time in the named samples. Two at once load both CPUs
// the way the gate sweep's two workers do.
func (st *runState) timeRef(name string) {
	if len(st.refs) == 0 {
		return
	}
	times := make([]time.Duration, len(st.refs))
	var wg sync.WaitGroup
	for i, r := range st.refs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			times[i] = r.time()
		}()
	}
	wg.Wait()
	var sum time.Duration
	for _, t := range times {
		sum += t
	}
	st.samples.add(name, float64(sum)/float64(len(times))/float64(time.Millisecond))
}

// fail records a failed op (or pass) with its reasons.
func (st *runState) fail(what string, reasons []string) {
	st.failed++
	for _, r := range reasons {
		st.problems = append(st.problems, what+": "+r)
	}
}

func runWorkload(o options, log io.Writer) (*result, error) {
	st := &runState{samples: samples{}}
	if !o.trace {
		threads := 1
		if o.workload == gateSweep {
			threads = gateWorkers
		}
		for i := 0; i < threads; i++ {
			st.refs = append(st.refs, newSpeedRef())
		}
	}
	var err error
	if o.workload == gateSweep {
		err = runGate(o, st, log)
	} else if p, ok := pointFor(o.workload); ok {
		err = runPoint(o, p, st, log)
	} else {
		return nil, fmt.Errorf("unknown workload %q (have %s)", o.workload, strings.Join(workloadNames, ", "))
	}
	if err != nil {
		return nil, err
	}
	return finish(o, st), nil
}

// digestOf is the canonical digest of a simulated result: equal digests
// mean the simulated program behaved identically.
func digestOf(v any) string {
	b, err := json.Marshal(v)
	if err != nil {
		panic(fmt.Sprintf("nicperf: digest: %v", err))
	}
	h := sha256.Sum256(b)
	return hex.EncodeToString(h[:8])
}

// ---------------------------------------------------------------------------
// Single operating points
// ---------------------------------------------------------------------------

// build assembles one op's controller with its workload attached.
func (p point) build(seed int64, w window) (*core.NIC, error) {
	n := core.New(p.cfg)
	if !p.hostile {
		n.AttachWorkload(p.udpSize, false)
		return n, nil
	}
	ts, err := workload.ParseTraffic(fmt.Sprintf("mixed,burst,flows=64,seed=%d", seed))
	if err != nil {
		return nil, err
	}
	if err := n.AttachTraffic(p.udpSize, ts, false); err != nil {
		return nil, err
	}
	plan := faults.Reference(w.warmup)
	plan.Seed = seed
	if err := n.AttachFaults(plan); err != nil {
		return nil, err
	}
	slo, err := core.ParseSLO("")
	if err != nil {
		return nil, err
	}
	if err := n.AttachSLO(slo); err != nil {
		return nil, err
	}
	n.EnableObs(obs.Config{})
	return n, nil
}

// opResult is what one op measured.
type opResult struct {
	report core.Report
	digest string

	start                  time.Time
	build, warmup, measure time.Duration

	steps                    uint64 // engine steps over warm-up and measurement
	allocBytes, allocObjects uint64 // during the measurement
	gcCycles                 uint32 // during the whole op
	gcPauseNs                uint64

	layers *layerSample // traced ops only
}

func (r opResult) wall() time.Duration { return r.build + r.warmup + r.measure }

// op runs one closed-loop operation: build, warm up, measure. observe adds
// the frame-lifecycle recorder to a clean point; tracing attaches the layer
// hooks after the build. The NIC is returned so the caller can hold it
// while measuring the live heap.
func (p point) op(seed int64, w window, observe, tracing bool) (opResult, *core.NIC, error) {
	var r opResult
	var m0, m1, m2 runtime.MemStats
	runtime.ReadMemStats(&m0)
	r.start = time.Now()
	n, err := p.build(seed, w)
	if err != nil {
		return r, nil, err
	}
	if observe {
		n.EnableObs(obs.Config{})
	}
	var h *hooks
	if tracing {
		h = attachHooks(n)
	}
	t1 := time.Now()
	n.Engine.RunFor(w.warmup)
	t2 := time.Now()
	runtime.ReadMemStats(&m1)
	t3 := time.Now()
	r.report = n.Run(0, w.measure)
	t4 := time.Now()
	runtime.ReadMemStats(&m2)

	r.build, r.warmup, r.measure = t1.Sub(r.start), t2.Sub(t1), t4.Sub(t3)
	r.steps = n.Engine.Steps()
	r.allocBytes = m2.TotalAlloc - m1.TotalAlloc
	r.allocObjects = m2.Mallocs - m1.Mallocs
	r.gcCycles = m2.NumGC - m0.NumGC
	r.gcPauseNs = m2.PauseTotalNs - m0.PauseTotalNs
	if h != nil {
		r.layers = h.sample(n, w.warmup+w.measure, r.build, r.warmup+r.measure)
	}
	r.digest = digestOf(r.report)
	return r, n, nil
}

// checkReport lists why a single-point report fails, if it does.
func (p point) checkReport(r core.Report) []string {
	var bad []string
	if r.InvariantViolations > 0 {
		bad = append(bad, fmt.Sprintf("%d invariant violation(s): %v", r.InvariantViolations, r.InvariantDetail))
	}
	if !p.hostile && r.TxOutOfOrder+r.RxOutOfOrder > 0 {
		bad = append(bad, fmt.Sprintf("out-of-order delivery on a clean stream (tx %d, rx %d)", r.TxOutOfOrder, r.RxOutOfOrder))
	}
	if r.SLO != nil && r.SLO.Violations > 0 {
		bad = append(bad, fmt.Sprintf("%d SLO violation(s)", r.SLO.Violations))
	}
	return bad
}

// checkOp counts one op and records its failures: report checks plus
// digest equality with the run's reference op.
func (st *runState) checkOp(p point, what string, r opResult) {
	st.attempted++
	bad := p.checkReport(r.report)
	if r.digest != st.digest {
		bad = append(bad, fmt.Sprintf("report digest %s differs from the first op's %s", r.digest, st.digest))
	}
	if len(bad) > 0 {
		st.fail(what, bad)
	}
}

func runPoint(o options, p point, st *runState, log io.Writer) error {
	if err := measureSetup(o, st); err != nil {
		return err
	}
	// The first op fills lazily built process state (the firmware's hazard
	// memo) and fixes the reference digest; it is checked but not timed.
	ref, _, err := p.op(o.seed, o.window, false, false)
	if err != nil {
		return err
	}
	st.digest = ref.digest
	st.checkOp(p, "reference op", ref)
	counts := layerCounts(ref.report)
	addSimulated(st.samples, []core.Report{ref.report})

	// Latency needs the recorder, which the clean points leave off while
	// timed. One observed op supplies it; with the latency section removed
	// its report must equal the reference (observation is passive).
	lat := ref.report
	if !p.hostile {
		obsOp, _, err := p.op(o.seed, o.window, true, false)
		if err != nil {
			return err
		}
		lat = obsOp.report
		stripped := obsOp.report
		stripped.Latency = nil
		obsOp.digest = digestOf(stripped)
		st.checkOp(p, "observed op", obsOp)
		for k, v := range layerCounts(obsOp.report) {
			if k == "host.recv_ring_max_occupancy" || k == "obs.recv_worst_stage_mean_us" {
				counts[k] = v
			}
		}
	}
	addLatency(st.samples, []core.Report{lat})

	if o.trace {
		for k, v := range counts {
			st.samples.add(k, v)
		}
		return tracePoint(o, p, st, log)
	}

	var nic *core.NIC
	var last time.Duration
	loopStart := time.Now()
	for i := 0; another(i, o.minOps, loopStart, last, o.seconds); i++ {
		st.timeRef(refOps)
		r, n, err := p.op(o.seed, o.window, false, false)
		if err != nil {
			return err
		}
		nic, last = n, r.wall()
		st.checkOp(p, fmt.Sprintf("op %d", i+1), r)
		st.samples.add("sim_ns_per_wall_ms", float64(o.window.measure)/float64(sim.Nanosecond)/(float64(r.measure)/float64(time.Millisecond)))
		st.samples.add("op_wall_s", r.wall().Seconds())
		st.samples.add("alloc_bytes_per_sim_us", float64(r.allocBytes)/simUs(o.window.measure))
	}
	st.refs = nil
	st.samples.add("live_heap_mb", liveHeapMB(nic))
	return nil
}

// liveHeapMB collects garbage with v still reachable and returns the live
// heap in megabytes.
func liveHeapMB(v any) float64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	runtime.KeepAlive(v)
	return float64(m.HeapAlloc) / 1e6
}

func simUs(p sim.Picoseconds) float64 { return float64(p) / float64(sim.Microsecond) }

// ---------------------------------------------------------------------------
// Simulated metrics shared by both kinds of workload
// ---------------------------------------------------------------------------

// deliveredFrames is the number of frames a report's host received.
func deliveredFrames(r core.Report) float64 { return r.RxFPS * r.Seconds }

// addSimulated records the simulated end-to-end results of one op (one
// report) or one gate pass (its job reports: mean line fraction and frame
// rate, pooled delivery fraction).
func addSimulated(s samples, rs []core.Report) {
	var lf, mfps, deliv, lost float64
	for _, r := range rs {
		lf += r.LineFraction
		mfps += (r.TxFPS + r.RxFPS) / 1e6
		deliv += deliveredFrames(r)
		lost += float64(r.RxDrops)
	}
	n := float64(len(rs))
	s.add("line_fraction", lf/n)
	s.add("mfps", mfps/n)
	s.add("delivered_frac", deliv/(deliv+lost))
}

// addLatency records the latency metrics: the report's own for one op, the
// median over the observed job reports for a gate pass.
func addLatency(s samples, rs []core.Report) {
	var p50, p99, sp99 []float64
	for _, r := range rs {
		if l := r.Latency; l != nil {
			p50 = append(p50, l.Recv.P50Us)
			p99 = append(p99, l.Recv.P99Us)
			sp99 = append(sp99, l.Send.P99Us)
		}
	}
	s.add("recv_p50_us", median(p50))
	s.add("recv_p99_us", median(p99))
	s.add("send_p99_us", median(sp99))
}

// layerCounts extracts the simulated per-layer metrics of one report.
// Layers a workload does not have read as their neutral value: no rejects,
// a skew of 1 (one queue takes everything it is given), no faults.
func layerCounts(r core.Report) map[string]float64 {
	m := map[string]float64{
		"cpu.ipc":                        r.IPC,
		"cpu.frac_load":                  r.FracLoad,
		"cpu.frac_conflict":              r.FracConflict,
		"cpu.frac_imiss":                 r.FracIMiss,
		"cpu.frac_idle_poll":             r.FracIdlePoll,
		"cpu.spin_loads_per_frame":       r.SpinLoadsPerF,
		"firmware.send_cycles_per_frame": r.Send.Total.CyclesPerFrm,
		"firmware.recv_cycles_per_frame": r.Recv.Total.CyclesPerFrm,
		"mem.scratch_gbps":               r.ScratchGbps,
		"mem.frame_mem_gbps":             r.FrameMemGbps,
		"mem.sdram_utilization":          r.SDRAMUtilization,
		"mem.imem_utilization":           r.IMemUtilization,
		"assist.admission_reject_frac":   0,
		"assist.rss_queue_skew":          1,
		"host.recv_ring_max_occupancy":   0,
		"obs.recv_worst_stage_mean_us":   0,
		"faults.injected_total":          0,
		"faults.takeovers":               0,
	}
	if t := r.Traffic; t != nil && t.Offered > 0 {
		m["assist.admission_reject_frac"] = float64(t.HostileRejected()) / float64(t.Offered)
	}
	if r.RSS != nil {
		m["assist.rss_queue_skew"] = r.RSS.QueueSkew
	}
	if l := r.Latency; l != nil {
		for _, q := range l.RecvQueues {
			m["host.recv_ring_max_occupancy"] = max(m["host.recv_ring_max_occupancy"], float64(q.MaxOccupancy))
		}
		for _, st := range l.Recv.Stages {
			m["obs.recv_worst_stage_mean_us"] = max(m["obs.recv_worst_stage_mean_us"], st.MeanUs)
		}
	}
	if f := r.Faults; f != nil {
		// Discrete injected events; stall and starvation durations are
		// counted in cycles elsewhere and are left out.
		in := f.Injected
		m["faults.injected_total"] = float64(in.RxCorrupt + in.RxDrop + in.DMALoss + in.DMADup + in.RingStarve + in.MailboxLoss)
		m["faults.takeovers"] = float64(f.Takeovers)
	}
	return m
}

// ---------------------------------------------------------------------------
// Gate sweep
// ---------------------------------------------------------------------------

// gateWorkers is the sweep pool size. It is fixed, not GOMAXPROCS, so that
// the workload is the same on every machine; two is the recording
// machine's CPU count.
const gateWorkers = 2

// gate is the gate-sweep workload: the suites nicbench -check runs by
// default, checked against the committed baselines.
type gate struct {
	suites   [][]sweep.Job // one job list per suite, in nicbench order
	baseline sweep.BaselineFile
}

func loadGate(o options) (gate, error) {
	want := map[string]bool{}
	for _, k := range o.suites {
		if _, ok := experiments.SuiteByKey(k); !ok {
			return gate{}, fmt.Errorf("unknown suite %q", k)
		}
		want[k] = true
	}
	var g gate
	for _, s := range experiments.Suites() {
		if want[s.Key] {
			g.suites = append(g.suites, s.Jobs(experiments.Quick))
		}
	}
	bf, err := sweep.LoadBaselines(o.baseline)
	if err != nil {
		return gate{}, err
	}
	g.baseline = bf
	return g, nil
}

// passResult is what one gate pass measured.
type passResult struct {
	results                  []sweep.Result
	wall                     time.Duration
	digest                   string
	allocBytes, allocObjects uint64
	gcCycles                 uint32
	gcPauseNs                uint64
}

// pass runs every suite through a fresh runner, as nicbench -check does:
// one Sweep per suite on one two-worker runner.
func (g gate) pass(run sweep.RunFunc) (passResult, error) {
	var p passResult
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	t0 := time.Now()
	r := &sweep.Runner{Run: run, Workers: gateWorkers}
	for _, jobs := range g.suites {
		res, err := r.Sweep(context.Background(), jobs)
		if err != nil {
			return p, err
		}
		p.results = append(p.results, res...)
	}
	p.wall = time.Since(t0)
	runtime.ReadMemStats(&m1)
	p.allocBytes = m1.TotalAlloc - m0.TotalAlloc
	p.allocObjects = m1.Mallocs - m0.Mallocs
	p.gcCycles = m1.NumGC - m0.NumGC
	p.gcPauseNs = m1.PauseTotalNs - m0.PauseTotalNs
	canon := make([]sweep.Result, len(p.results))
	for i, r := range p.results {
		canon[i] = r.Canonical()
	}
	p.digest = digestOf(canon)
	return p, nil
}

// check lists why a pass fails: failed jobs, invariant violations, baseline
// violations and a digest that differs from the run's first pass.
func (g gate) check(p passResult, refDigest string) []string {
	var bad []string
	for _, r := range p.results {
		switch {
		case !r.OK():
			msg, _, _ := strings.Cut(r.Err, "\n")
			bad = append(bad, fmt.Sprintf("job %s failed: %s", r.ID, msg))
		case r.Report != nil && r.Report.InvariantViolations > 0:
			bad = append(bad, fmt.Sprintf("job %s: %d invariant violation(s)", r.ID, r.Report.InvariantViolations))
		}
	}
	for _, v := range sweep.Compare(p.results, g.baseline) {
		bad = append(bad, "baseline: "+v.String())
	}
	if p.digest != refDigest {
		bad = append(bad, fmt.Sprintf("results digest %s differs from the first pass's %s", p.digest, refDigest))
	}
	return bad
}

// simPs is the simulated time a pass covers (warm-up and measurement of
// every job).
func (p passResult) simPs() sim.Picoseconds {
	var t sim.Picoseconds
	for _, r := range p.results {
		t += sim.Picoseconds(r.Spec.WarmupPs + r.Spec.MeasurePs)
	}
	return t
}

// jobWall sums the jobs' own wall time.
func (p passResult) jobWall() float64 {
	var t float64
	for _, r := range p.results {
		t += r.ElapsedSec
	}
	return t
}

func (p passResult) reports() []core.Report {
	var rs []core.Report
	for _, r := range p.results {
		if r.Report != nil {
			rs = append(rs, *r.Report)
		}
	}
	return rs
}

func runGate(o options, st *runState, log io.Writer) error {
	g, err := loadGate(o)
	if err != nil {
		return err
	}
	if err := measureSetup(o, st); err != nil {
		return err
	}
	// The first pass warms process state and fixes the reference digest.
	ref, err := g.pass(experiments.Simulate)
	if err != nil {
		return err
	}
	st.digest = ref.digest
	st.checkPass(g, "reference pass", ref)
	addSimulated(st.samples, ref.reports())
	addLatency(st.samples, ref.reports())
	fmt.Fprintf(log, "nicperf: %s reference pass: %d jobs in %.2fs\n", o.workload, len(ref.results), ref.wall.Seconds())

	if o.trace {
		counts := map[string][]float64{}
		for _, r := range ref.reports() {
			for k, v := range layerCounts(r) {
				counts[k] = append(counts[k], v)
			}
		}
		for k, vs := range counts {
			st.samples.add(k, mean(vs))
		}
		return traceGate(o, g, st, log)
	}

	var last passResult
	loopStart := time.Now()
	for i := 0; another(i, o.minOps, loopStart, last.wall, o.seconds); i++ {
		// A run holds only a handful of passes; three reference timings per
		// pass give the reference's best decile enough samples.
		for k := 0; k < 3; k++ {
			st.timeRef(refOps)
		}
		p, err := g.pass(experiments.Simulate)
		if err != nil {
			return err
		}
		st.checkPass(g, fmt.Sprintf("pass %d", i+1), p)
		st.samples.add("sim_ns_per_wall_ms", float64(p.simPs())/float64(sim.Nanosecond)/(p.jobWall()*1e3))
		st.samples.add("op_wall_s", p.wall.Seconds())
		st.samples.add("alloc_bytes_per_sim_us", float64(p.allocBytes)/simUs(p.simPs()))
		last = p
	}
	st.refs = nil
	st.samples.add("live_heap_mb", liveHeapMB(last.results))
	return nil
}

func (st *runState) checkPass(g gate, what string, p passResult) {
	st.attempted++
	if bad := g.check(p, st.digest); len(bad) > 0 {
		st.fail(what, bad)
	}
}

func mean(vs []float64) float64 {
	var t float64
	for _, v := range vs {
		t += v
	}
	return t / float64(len(vs))
}
