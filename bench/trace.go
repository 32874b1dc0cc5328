package main

import (
	"context"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime/pprof"
	"sync"
	"time"

	"repro/internal/assist"
	"repro/internal/core"
	"repro/internal/cpu"
	"repro/internal/experiments"
	"repro/internal/firmware"
	"repro/internal/host"
	"repro/internal/sim"
	"repro/internal/sweep"
)

// The traced run measures every layer from outside the simulator: the
// engine's per-domain tick profile (Engine.ProfileTicks) splits host time
// into the cpu, sdram, mac, host and faults clock domains, and timing
// wrappers on the public hooks split firmware dispatch (cpu.Core.NextWork)
// out of the cpu domain and the workload sources (host.Host.Source,
// assist.MACRx.Source) out of the host and mac domains. The engine's own
// cost is the static-schedule step cost, timed on an engine with no-op
// tickers at the same clock frequencies, times the step count. The traced
// reports must equal the untraced ones byte for byte (passivity), and the
// layer times must add up to the untraced wall time (closure).

// maxClosureError is the largest closure error a traced run accepts.
const maxClosureError = 0.15

// hooks are the timing wrappers attached to one controller. A dispatch
// is useful when it hands the core real work rather than an idle poll pass.
type hooks struct {
	fwCalls, fwUseful uint64
	fwNs              int64
	hostSrc, macSrc   sourceTimes
}

type sourceTimes struct {
	calls uint64
	ns    int64
}

type timedSend struct {
	src host.SendSource
	t   *sourceTimes
}

func (s timedSend) Next() *host.Frame {
	t0 := time.Now()
	f := s.src.Next()
	s.t.ns += int64(time.Since(t0))
	s.t.calls++
	return f
}

type timedRecv struct {
	src assist.NetworkSource
	t   *sourceTimes
}

func (s timedRecv) Next() (int, any, bool) {
	t0 := time.Now()
	size, handle, ok := s.src.Next()
	s.t.ns += int64(time.Since(t0))
	s.t.calls++
	return size, handle, ok
}

// attachHooks wraps the controller's firmware dispatch and workload sources
// and turns the engine's tick profile on. Call after the workload is
// attached and before the controller runs.
func attachHooks(n *core.NIC) *hooks {
	h := &hooks{}
	for _, c := range n.Cores {
		next := c.NextWork
		c.NextWork = func() *cpu.Stream {
			t0 := time.Now()
			s := next()
			h.fwNs += int64(time.Since(t0))
			h.fwCalls++
			if s != nil && s.AcctID != firmware.AcctIdle {
				h.fwUseful++
			}
			return s
		}
	}
	if n.Host.Source != nil {
		n.Host.Source = timedSend{src: n.Host.Source, t: &h.hostSrc}
	}
	if n.As.MACRx.Source != nil {
		n.As.MACRx.Source = timedRecv{src: n.As.MACRx.Source, t: &h.macSrc}
	}
	n.Engine.ProfileTicks(true)
	return h
}

// layerSample is the layer timing of one traced op or job, or the sum of
// several (add).
type layerSample struct {
	domains map[string]sim.DomainCost
	order   []string // domain names in engine registration order
	hooks   hooks
	steps   uint64
	simPs   sim.Picoseconds // simulated time covered
	build   time.Duration   // core.New plus attach
	run     time.Duration   // traced warm-up plus measurement

	// Set by price from calibrations taken next to the op, so that they see
	// the same machine load: host time per layer with the clock cost
	// removed, the engine's static- and generic-path cost of the steps, and
	// the clock cost of a timed interval (summed over priced samples).
	self                map[string]float64
	staticNs, genericNs float64
	clockPairNs         float64
	priced              int
}

func (h *hooks) sample(n *core.NIC, simPs sim.Picoseconds, build, run time.Duration) *layerSample {
	s := &layerSample{domains: map[string]sim.DomainCost{}, hooks: *h, steps: n.Engine.Steps(), simPs: simPs, build: build, run: run}
	for _, d := range n.Engine.TickCosts() {
		s.domains[d.Name] = d
		s.order = append(s.order, d.Name)
	}
	return s
}

// add folds a priced sample o into s.
func (s *layerSample) add(o *layerSample) {
	if s.domains == nil {
		s.domains = map[string]sim.DomainCost{}
		s.self = map[string]float64{}
	}
	for name, d := range o.domains {
		cur := s.domains[name]
		cur.Name, cur.Events = name, d.Events
		cur.Ticks += d.Ticks
		cur.Wall += d.Wall
		s.domains[name] = cur
	}
	for layer, ns := range o.self {
		s.self[layer] += ns
	}
	s.hooks.fwCalls += o.hooks.fwCalls
	s.hooks.fwUseful += o.hooks.fwUseful
	s.hooks.fwNs += o.hooks.fwNs
	s.hooks.hostSrc.calls += o.hooks.hostSrc.calls
	s.hooks.hostSrc.ns += o.hooks.hostSrc.ns
	s.hooks.macSrc.calls += o.hooks.macSrc.calls
	s.hooks.macSrc.ns += o.hooks.macSrc.ns
	s.steps += o.steps
	s.simPs += o.simPs
	s.build += o.build
	s.run += o.run
	s.staticNs += o.staticNs
	s.genericNs += o.genericNs
	s.clockPairNs += o.clockPairNs
	s.priced += o.priced
}

// clockCost is the cost of one timed interval: empty is what an interval
// around nothing reads, pair is what a timed interval adds to the interval
// enclosing it.
type clockCost struct{ empty, pair float64 }

func calibrateClock() clockCost {
	const n = 20000
	var empties, pairs []float64
	for rep := 0; rep < 3; rep++ {
		var acc int64
		t0 := time.Now()
		for i := 0; i < n; i++ {
			s := time.Now()
			acc += int64(time.Since(s))
		}
		pairs = append(pairs, float64(time.Since(t0))/n)
		empties = append(empties, float64(acc)/n)
	}
	return clockCost{empty: median(empties), pair: median(pairs)}
}

// price calibrates the clock and the engine's step cost now and attributes
// the sample's host time to layers with them. Each profiled domain tick is
// one timed interval; each hook call is a timed interval nested in its
// domain's. The engine's own share is its static-path step cost times the
// step count, since profiling forces the generic path.
func (s *layerSample) price() {
	c := calibrateClock()
	steps := float64(s.steps)
	s.staticNs = s.stepCost(true) * steps
	s.genericNs = s.stepCost(false) * steps
	s.clockPairNs = c.pair
	s.priced = 1

	dom := func(name string) (wall, ticks float64) {
		d := s.domains[name]
		return float64(d.Wall), float64(d.Ticks)
	}
	nested := func(t sourceTimes) (self, calls float64) {
		calls = float64(t.calls)
		return float64(t.ns) - calls*c.empty, calls
	}
	fw, fwCalls := nested(sourceTimes{calls: s.hooks.fwCalls, ns: s.hooks.fwNs})
	hostSrc, hostCalls := nested(s.hooks.hostSrc)
	macSrc, macCalls := nested(s.hooks.macSrc)
	cpuW, cpuT := dom("cpu")
	sdramW, sdramT := dom("sdram")
	macW, macT := dom("mac")
	hostW, hostT := dom("host")
	faultsW, faultsT := dom("faults")
	s.self = map[string]float64{
		"sim":      s.staticNs,
		"cpu":      cpuW - cpuT*c.empty - fw - fwCalls*c.pair,
		"firmware": fw,
		"sdram":    sdramW - sdramT*c.empty,
		"mac":      macW - macT*c.empty - macSrc - macCalls*c.pair,
		"host":     hostW - hostT*c.empty - hostSrc - hostCalls*c.pair,
		"faults":   faultsW - faultsT*c.empty,
		"workload": hostSrc + macSrc,
		"core":     float64(s.build),
	}
}

// stepCost times Engine.Step, in ns per step, on an engine with the
// sample's clock domains (frequencies recovered from tick counts over
// simulated time) and one no-op ticker each, on the static or the generic
// path.
func (s *layerSample) stepCost(static bool) float64 {
	noop := sim.TickFunc(func(uint64) {})
	const steps = 50000
	var reps []float64
	for rep := 0; rep < 3; rep++ {
		var doms []*sim.Domain
		for _, name := range s.order {
			d := s.domains[name]
			if d.Events {
				doms = append(doms, sim.NewEventDomain(name))
				continue
			}
			period := math.Round(float64(s.simPs) / float64(d.Ticks))
			dom := sim.NewDomain(name, float64(sim.Second)/period)
			dom.Add(noop)
			doms = append(doms, dom)
		}
		e := sim.NewEngine(doms...)
		e.SetStaticSchedule(static)
		for i := 0; i < 1000; i++ {
			e.Step()
		}
		t0 := time.Now()
		for i := 0; i < steps; i++ {
			e.Step()
		}
		reps = append(reps, float64(time.Since(t0))/steps)
	}
	return median(reps)
}

// metrics turns a priced sample into the traced host-time metrics.
// untracedNs is the untraced wall time of the same work (build, warm-up,
// measurement).
func (s *layerSample) metrics(untracedNs float64) map[string]float64 {
	var total float64
	for _, v := range s.self {
		total += v
	}
	ticks := func(name string) float64 { return float64(s.domains[name].Ticks) }
	simUs := float64(s.simPs) / float64(sim.Microsecond)
	srcCalls := float64(s.hooks.hostSrc.calls + s.hooks.macSrc.calls)
	steps := float64(s.steps)
	return map[string]float64{
		"sim.steps_per_sim_us":               steps / simUs,
		"sim.step_ns_static":                 s.staticNs / steps,
		"sim.step_ns_generic":                s.genericNs / steps,
		"sim.self_frac":                      s.self["sim"] / untracedNs,
		"cpu.ns_per_tick":                    s.self["cpu"] / ticks("cpu"),
		"cpu.self_frac":                      s.self["cpu"] / untracedNs,
		"firmware.nextwork_calls_per_sim_us": float64(s.hooks.fwCalls) / simUs,
		"firmware.nextwork_ns_per_call":      s.self["firmware"] / float64(s.hooks.fwCalls),
		"firmware.nextwork_frac":             s.self["firmware"] / untracedNs,
		"firmware.nextwork_useful_frac":      float64(s.hooks.fwUseful) / float64(s.hooks.fwCalls),
		"sdram.ns_per_tick":                  s.self["sdram"] / ticks("sdram"),
		"sdram.self_frac":                    s.self["sdram"] / untracedNs,
		"mac.ns_per_tick":                    s.self["mac"] / ticks("mac"),
		"mac.self_frac":                      s.self["mac"] / untracedNs,
		"host.ns_per_tick":                   s.self["host"] / ticks("host"),
		"host.self_frac":                     s.self["host"] / untracedNs,
		"faults.self_frac":                   s.self["faults"] / untracedNs,
		"workload.source_calls_per_sim_us":   srcCalls / simUs,
		"workload.source_ns_per_call":        s.self["workload"] / srcCalls,
		"workload.source_frac":               s.self["workload"] / untracedNs,
		"trace.closure_error_frac":           math.Abs(total-untracedNs) / untracedNs,
		"trace.overhead_frac":                float64(s.build+s.run)/untracedNs - 1,
		"trace.clock_read_ns":                s.clockPairNs / float64(s.priced) / 2,
	}
}

// ---------------------------------------------------------------------------
// Spans
// ---------------------------------------------------------------------------

// spanLog keeps Chrome trace_event spans in memory until the run ends.
type spanLog struct {
	mu    sync.Mutex
	start time.Time
	evs   []chromeEvent
}

type chromeEvent struct {
	Name string            `json:"name"`
	Cat  string            `json:"cat"`
	Ph   string            `json:"ph"`
	TS   float64           `json:"ts"`  // µs since the run started
	Dur  float64           `json:"dur"` // µs
	PID  int               `json:"pid"`
	TID  int               `json:"tid"`
	ID   string            `json:"id"`
	Args map[string]string `json:"args,omitempty"`
}

func newSpanLog() *spanLog { return &spanLog{start: time.Now()} }

// op records an op (or job) span and its build, warm-up and measurement
// children, all carrying the op's id.
func (l *spanLog) op(id, cat string, tid int, start time.Time, build, warmup, measure time.Duration) {
	us := func(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
	at := start.Sub(l.start)
	ev := func(name string, from, dur time.Duration, parent string) chromeEvent {
		e := chromeEvent{Name: name, Cat: cat, Ph: "X", TS: us(from), Dur: us(dur), PID: 1, TID: tid, ID: id}
		if parent != "" {
			e.Args = map[string]string{"parent": parent}
		}
		return e
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	l.evs = append(l.evs,
		ev(id, at, build+warmup+measure, ""),
		ev("build", at, build, id),
		ev("warm-up", at+build, warmup, id),
		ev("measure", at+build+warmup, measure, id),
	)
}

func (l *spanLog) write(path string) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return writeJSON(path, struct {
		TraceEvents     []chromeEvent `json:"traceEvents"`
		DisplayTimeUnit string        `json:"displayTimeUnit"`
	}{l.evs, "ms"})
}

// ---------------------------------------------------------------------------
// Traced runs
// ---------------------------------------------------------------------------

// layersFile is the per-layer breakdown behind a traced run's metrics:
// every pair's times, and the metrics of all pairs pooled.
type layersFile struct {
	Workload string             `json:"workload"`
	Seed     int64              `json:"seed"`
	Pairs    []pairRecord       `json:"pairs"`
	Metrics  map[string]float64 `json:"pooled_metrics"`
}

type pairRecord struct {
	UntracedMs  float64            `json:"untraced_wall_ms"`
	SelfMs      map[string]float64 `json:"traced_self_ms"`
	DomainTicks map[string]uint64  `json:"traced_domain_ticks"`
	ClockPairNs float64            `json:"clock_pair_ns"`
	StepStatic  float64            `json:"step_ns_static"`
}

// startProfile starts the CPU profile into dir/cpu.pprof; stop ends it.
func startProfile(dir string) (stop func() error, err error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	f, err := os.Create(filepath.Join(dir, "cpu.pprof"))
	if err != nil {
		return nil, err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return nil, err
	}
	return func() error {
		pprof.StopCPUProfile()
		return f.Close()
	}, nil
}

// tracedPair is a traced sample and the untraced wall time of the same
// work (build, warm-up, measurement), measured next to it so that both see
// the same machine load.
type tracedPair struct {
	layers     *layerSample
	untracedNs float64
}

// finishTrace pools the priced pairs into the traced metrics, checks
// closure and writes the trace directory. Pooling sums each layer's time
// and the untraced wall over all pairs: load that hits one op of a pair
// harder than the other then averages out instead of deciding a median.
func finishTrace(o options, st *runState, pairs []tracedPair, spans *spanLog) error {
	lf := layersFile{Workload: o.workload, Seed: o.seed}
	pooled := tracedPair{layers: &layerSample{}}
	for _, p := range pairs {
		pooled.layers.add(p.layers)
		pooled.untracedNs += p.untracedNs
		rec := pairRecord{
			UntracedMs:  p.untracedNs / 1e6,
			SelfMs:      map[string]float64{},
			DomainTicks: map[string]uint64{},
			ClockPairNs: p.layers.clockPairNs,
			StepStatic:  p.layers.staticNs / float64(p.layers.steps),
		}
		for k, v := range p.layers.self {
			rec.SelfMs[k] = v / 1e6
		}
		for name, d := range p.layers.domains {
			rec.DomainTicks[name] = d.Ticks
		}
		lf.Pairs = append(lf.Pairs, rec)
	}
	lf.Metrics = pooled.layers.metrics(pooled.untracedNs)
	for k, v := range lf.Metrics {
		st.samples.add(k, v)
	}
	if e := lf.Metrics["trace.closure_error_frac"]; !(e <= maxClosureError) {
		st.problems = append(st.problems, fmt.Sprintf("closure: layer times miss the untraced wall time by %.1f%% (limit %.0f%%)", 100*e, 100*maxClosureError))
	}
	if err := writeJSON(filepath.Join(o.traceDir, "layers.json"), lf); err != nil {
		return err
	}
	return spans.write(filepath.Join(o.traceDir, "spans.json"))
}

// tracePoint is the traced run of a single operating point. Untraced ops
// run CPU-profiled for a quarter of the time and give the op and GC shape;
// then untraced and traced ops alternate, each traced op measured against
// the untraced op just before it.
func tracePoint(o options, p point, st *runState, log io.Writer) error {
	spans := newSpanLog()
	stop, err := startProfile(o.traceDir)
	if err != nil {
		return err
	}
	var opWalls []float64
	var gcCycles, gcPause, simPs, wallNs float64
	start := time.Now()
	var last time.Duration
	for i := 0; another(i, o.minOps, start, last, o.seconds/4); i++ {
		r, _, err := p.op(o.seed, o.window, false, false)
		if err != nil {
			_ = stop() // the op's error is the one to report
			return err
		}
		last = r.wall()
		st.checkOp(p, fmt.Sprintf("profiled op %d", i+1), r)
		spans.op(fmt.Sprintf("op-%d", i+1), "untraced", 1, r.start, r.build, r.warmup, r.measure)
		opWalls = append(opWalls, r.wall().Seconds())
		st.samples.add("alloc_objects_per_sim_us", float64(r.allocObjects)/simUs(o.window.measure))
		gcCycles += float64(r.gcCycles)
		gcPause += float64(r.gcPauseNs)
		simPs += float64(o.window.warmup + o.window.measure)
		wallNs += float64(r.wall())
	}
	addSweepShape(st.samples, opWalls, time.Since(start), 1)
	if err := stop(); err != nil {
		return err
	}
	st.samples.add("gc.cycles_per_sim_ms", gcCycles/(simPs/float64(sim.Millisecond)))
	st.samples.add("gc.pause_frac", gcPause/wallNs)

	var pairs []tracedPair
	last = 0
	for i := 0; another(i, o.minOps, start, last, o.seconds); i++ {
		t0 := time.Now()
		u, _, err := p.op(o.seed, o.window, false, false)
		if err != nil {
			return err
		}
		st.checkOp(p, fmt.Sprintf("pair %d untraced op", i+1), u)
		tr, _, err := p.op(o.seed, o.window, false, true)
		if err != nil {
			return err
		}
		st.checkOp(p, fmt.Sprintf("pair %d traced op", i+1), tr)
		spans.op(fmt.Sprintf("pair-%d", i+1), "untraced", 1, u.start, u.build, u.warmup, u.measure)
		spans.op(fmt.Sprintf("pair-%d-traced", i+1), "traced", 2, tr.start, tr.build, tr.warmup, tr.measure)
		tr.layers.price()
		pairs = append(pairs, tracedPair{layers: tr.layers, untracedNs: float64(u.wall())})
		last = time.Since(t0)
	}
	fmt.Fprintf(log, "nicperf: %s traced run: %d profiled ops, %d untraced/traced pairs\n", o.workload, len(opWalls), len(pairs))
	return finishTrace(o, st, pairs, spans)
}

// addSweepShape records the job-wall distribution and worker occupancy of
// a pool: the gate's two workers, or a single-point run's one closed loop.
func addSweepShape(s samples, jobWalls []float64, wall time.Duration, workers int) {
	var busy float64
	for _, w := range jobWalls {
		busy += w
	}
	s.add("sweep.job_wall_s_p50", percentile(jobWalls, 0.5))
	s.add("sweep.job_wall_s_p90", percentile(jobWalls, 0.9))
	s.add("sweep.job_wall_s_max", percentile(jobWalls, 1))
	s.add("sweep.worker_busy_frac", busy/(wall.Seconds()*float64(workers)))
}

// mirrorJob runs one gate job the way experiments.Simulate does, with its
// phases timed and, when tracing, the layer hooks attached.
func mirrorJob(j sweep.Job, tracing bool) (opResult, error) {
	var r opResult
	s := j.Spec
	if s.Kind != sweep.KindNIC && s.Kind != "" {
		return r, fmt.Errorf("job %s: kind %q is not a controller run", j.ID, s.Kind)
	}
	cfg, err := experiments.ConfigFor(s)
	if err != nil {
		return r, err
	}
	b := experiments.BudgetOf(s)
	r.start = time.Now()
	n := core.New(cfg)
	if s.Traffic != nil {
		err = n.AttachTraffic(s.UDPSize, *s.Traffic, false)
	} else {
		n.AttachWorkload(s.UDPSize, false)
	}
	if err == nil && s.Faults != nil {
		err = n.AttachFaults(*s.Faults)
	}
	if err == nil && s.SLO != nil {
		err = n.AttachSLO(*s.SLO)
	}
	if err != nil {
		return r, err
	}
	var h *hooks
	if tracing {
		h = attachHooks(n)
	}
	t1 := time.Now()
	n.Engine.RunFor(b.Warmup)
	t2 := time.Now()
	r.report = n.Run(0, b.Measure)
	t3 := time.Now()
	r.build, r.warmup, r.measure = t1.Sub(r.start), t2.Sub(t1), t3.Sub(t2)
	if h != nil {
		r.layers = h.sample(n, b.Warmup+b.Measure, r.build, r.warmup+r.measure)
	}
	r.digest = digestOf(r.report)
	return r, nil
}

// jobLog collects what the jobs of a paired gate pass measured.
type jobLog struct {
	mu     sync.Mutex
	builds []float64 // ms, untraced
	warms  []float64 // s, untraced
	pairs  []tracedPair
}

// pairedSimulate is a sweep.RunFunc that runs each gate job twice on its
// worker, untraced and then traced, through mirrorJob. A job whose two
// reports differ fails (passivity), and the pass's results digest must
// equal experiments.Simulate's, so mirrorJob cannot drift from the real
// job body unnoticed.
func pairedSimulate(jl *jobLog, spans *spanLog, pass int) sweep.RunFunc {
	slots := make(chan int, gateWorkers)
	for i := 0; i < gateWorkers; i++ {
		slots <- i + 1
	}
	return func(_ context.Context, j sweep.Job) (sweep.Outcome, error) {
		slot := <-slots
		defer func() { slots <- slot }()
		u, err := mirrorJob(j, false)
		if err != nil {
			return sweep.Outcome{}, err
		}
		tr, err := mirrorJob(j, true)
		if err != nil {
			return sweep.Outcome{}, err
		}
		id := fmt.Sprintf("pass-%d/%s", pass, j.ID)
		spans.op(id, "untraced", slot, u.start, u.build, u.warmup, u.measure)
		spans.op(id+"/traced", "traced", slot, tr.start, tr.build, tr.warmup, tr.measure)
		if u.digest != tr.digest {
			return sweep.Outcome{}, fmt.Errorf("traced report digest %s differs from untraced %s", tr.digest, u.digest)
		}
		tr.layers.price()
		jl.mu.Lock()
		defer jl.mu.Unlock()
		jl.builds = append(jl.builds, float64(u.build)/float64(time.Millisecond))
		jl.warms = append(jl.warms, u.warmup.Seconds())
		jl.pairs = append(jl.pairs, tracedPair{layers: tr.layers, untracedNs: float64(u.wall())})
		return sweep.Outcome{Report: &tr.report}, nil
	}
}

// traceGate is the traced run of the gate sweep: one CPU-profiled pass
// through experiments.Simulate (the sweep's shape and GC), then paired
// passes, whose every job is one traced pair.
func traceGate(o options, g gate, st *runState, log io.Writer) error {
	spans := newSpanLog()
	stop, err := startProfile(o.traceDir)
	if err != nil {
		return err
	}
	start := time.Now()
	p, err := g.pass(experiments.Simulate)
	if serr := stop(); err == nil {
		err = serr
	}
	if err != nil {
		return err
	}
	st.checkPass(g, "profiled pass", p)
	var jobWalls []float64
	for _, r := range p.results {
		jobWalls = append(jobWalls, r.ElapsedSec)
	}
	addSweepShape(st.samples, jobWalls, p.wall, gateWorkers)
	st.samples.add("gc.cycles_per_sim_ms", float64(p.gcCycles)/(float64(p.simPs())/float64(sim.Millisecond)))
	st.samples.add("gc.pause_frac", float64(p.gcPauseNs)/float64(p.wall))
	st.samples.add("alloc_objects_per_sim_us", float64(p.allocObjects)/simUs(p.simPs()))

	var pairs []tracedPair
	var last time.Duration
	passes := 0
	for i := 0; another(i, 1, start, last, o.seconds); i++ {
		jl := &jobLog{}
		tp, err := g.pass(pairedSimulate(jl, spans, i+1))
		if err != nil {
			return err
		}
		last = tp.wall
		st.checkPass(g, fmt.Sprintf("paired pass %d", i+1), tp)
		st.samples.add("core.build_ms", jl.builds...)
		st.samples.add("core.warmup_s", jl.warms...)
		pairs = append(pairs, jl.pairs...)
		passes++
	}
	fmt.Fprintf(log, "nicperf: %s traced run: 1 profiled pass, %d paired passes\n", o.workload, passes)
	return finishTrace(o, st, pairs, spans)
}
