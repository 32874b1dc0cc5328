package core

import (
	"bytes"
	"runtime"
	"testing"

	"repro/internal/faults"
	"repro/internal/sim"
)

// reportJSON assembles a fresh NIC for cfg, runs it briefly (with the fault
// plan attached when non-empty), and returns the serialized report. Each call
// builds its own simulator so runs are fully independent.
func reportJSON(t *testing.T, cfg Config, udp int, plan faults.Plan) []byte {
	return reportJSONPaused(t, cfg, udp, plan, nil)
}

// reportJSONPaused is reportJSON with the warm-up cut into back-to-back
// Engine.RunFor calls that end at (the first edge at or past) each of the
// given instants before Run finishes it.
func reportJSONPaused(t *testing.T, cfg Config, udp int, plan faults.Plan, pauses []sim.Picoseconds) []byte {
	t.Helper()
	n := New(cfg)
	n.AttachWorkload(udp, false)
	if err := n.AttachFaults(plan); err != nil {
		t.Fatal(err)
	}
	const warmup = 300 * sim.Microsecond
	for _, p := range pauses {
		n.Engine.RunFor(p - n.Engine.Now())
	}
	r := n.Run(warmup-n.Engine.Now(), 200*sim.Microsecond)
	b, err := r.JSON()
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestReportJSONDeterministic: the simulator is a sequential deterministic
// machine, so the same Config and workload must produce byte-identical
// Report JSON on every run — the property the sweep harness's caching,
// resume, and baseline gating all rest on. Fault injection is part of the
// contract: given (config, plan, seed), every injected fault lands on the
// same frame, completion, and cycle, so faulted runs repeat exactly too.
func TestReportJSONDeterministic(t *testing.T) {
	ref := faults.Reference(300 * sim.Microsecond)
	seeded := ref
	seeded.Seed = 42
	for _, tc := range []struct {
		name string
		cfg  Config
		udp  int
		plan faults.Plan
	}{
		{"default-1472", DefaultConfig(), 1472, faults.Plan{}},
		{"rmw-400", RMWConfig(), 400, faults.Plan{}},
		{"default-1472-ref-faults", DefaultConfig(), 1472, ref},
		{"rmw-1472-ref-faults", RMWConfig(), 1472, ref},
		{"default-1472-seed42", DefaultConfig(), 1472, seeded},
	} {
		t.Run(tc.name, func(t *testing.T) {
			a := reportJSON(t, tc.cfg, tc.udp, tc.plan)
			b := reportJSON(t, tc.cfg, tc.udp, tc.plan)
			if !bytes.Equal(a, b) {
				t.Errorf("two runs of the same config diverge:\nrun1: %s\nrun2: %s", a, b)
			}
		})
	}
}

// TestReportJSONSchedulerPathsAgree: stopping and resuming the engine must
// not move a single tick. A warm-up cut into dozens of RunFor calls, which
// end on arbitrary instants (often edges only a sleeping SDRAM or MAC wire
// has) and bring every sleeping domain's bookkeeping up to date each time,
// yields the report of one uninterrupted warm-up, at both paper operating
// points (six 166 MHz cores with RMW, the eight-core 175 MHz software-only
// grid corner), with and without a fault plan.
func TestReportJSONSchedulerPathsAgree(t *testing.T) {
	rmw := RMWConfig()
	big := DefaultConfig()
	big.Cores = 8
	big.CPUMHz = 175
	ref := faults.Reference(300 * sim.Microsecond)
	var pauses []sim.Picoseconds
	for p := sim.Picoseconds(1); p < 300*sim.Microsecond; p += 7*sim.Microsecond + 777 {
		pauses = append(pauses, p)
	}
	for _, tc := range []struct {
		name string
		cfg  Config
		plan faults.Plan
	}{
		{"6c-166-rmw", rmw, faults.Plan{}},
		{"6c-166-rmw-ref-faults", rmw, ref},
		{"8c-175-sw", big, faults.Plan{}},
		{"8c-175-sw-ref-faults", big, ref},
	} {
		t.Run(tc.name, func(t *testing.T) {
			whole := reportJSON(t, tc.cfg, 1472, tc.plan)
			paused := reportJSONPaused(t, tc.cfg, 1472, tc.plan, pauses)
			if !bytes.Equal(whole, paused) {
				t.Errorf("paused vs uninterrupted warm-up reports diverge:\nwhole:  %s\npaused: %s", whole, paused)
			}
		})
	}
}

// TestSleepingDomainsStepCount guards the engine's step rate at the paper's
// six-core 166 MHz RMW point. Ticking every edge of the four clocks takes
// about 923 steps per simulated µs; with the SDRAM and both MAC wires asleep
// through bursts, frames and idle stretches it takes about 310. A lost wake
// would stall the run or break the digests elsewhere; a ticker without
// Sleeper in the sdram or mac domain keeps that domain awake and trips this
// bound. The count is deterministic.
func TestSleepingDomainsStepCount(t *testing.T) {
	n := New(RMWConfig())
	n.AttachWorkload(1472, false)
	n.Run(800*sim.Microsecond, 2*sim.Millisecond)
	perUs := float64(n.Engine.Steps()) / (float64(n.Engine.Now()) / float64(sim.Microsecond))
	t.Logf("%.1f engine steps per simulated µs", perUs)
	if perUs > 350 {
		t.Errorf("%.1f engine steps per simulated µs, want <= 350", perUs)
	}
}

// TestSleepingCoresTickCount guards the cores' executed-tick rate at the
// paper's six-core 166 MHz RMW point. Ticking every edge takes 996 core ticks
// per simulated µs; with the cores asleep through hazard bubbles, plain ALU
// runs and memory and fill waits it takes about 255. A core that stopped
// sleeping, or a sleep cut short by a spurious wake, trips this bound. The
// count is deterministic.
func TestSleepingCoresTickCount(t *testing.T) {
	n := New(RMWConfig())
	n.AttachWorkload(1472, false)
	n.Run(800*sim.Microsecond, 2*sim.Millisecond)
	var ticks uint64
	for i := range n.Cores {
		ticks += n.cpuD.TickerTicks(i)
	}
	perUs := float64(ticks) / (float64(n.Engine.Now()) / float64(sim.Microsecond))
	t.Logf("%.1f executed core ticks per simulated µs", perUs)
	if perUs > 450 {
		t.Errorf("%.1f executed core ticks per simulated µs, want <= 450", perUs)
	}
}

// TestReportJSONDeterministicAcrossGOMAXPROCS: scheduling pressure must not
// leak into results. A single simulation never spawns goroutines, but the
// sweep harness runs many concurrently, so the report must be identical
// whether the runtime has one OS thread or eight — with and without a fault
// plan attached.
func TestReportJSONDeterministicAcrossGOMAXPROCS(t *testing.T) {
	for _, tc := range []struct {
		name string
		plan faults.Plan
	}{
		{"fault-free", faults.Plan{}},
		{"ref-faults", faults.Reference(300 * sim.Microsecond)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := DefaultConfig()
			prev := runtime.GOMAXPROCS(1)
			one := reportJSON(t, cfg, 1472, tc.plan)
			runtime.GOMAXPROCS(8)
			eight := reportJSON(t, cfg, 1472, tc.plan)
			runtime.GOMAXPROCS(prev)
			if !bytes.Equal(one, eight) {
				t.Errorf("GOMAXPROCS=1 vs 8 reports diverge:\n1: %s\n8: %s", one, eight)
			}
		})
	}
}
