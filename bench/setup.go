package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"sync"
	"time"

	"repro/internal/experiments"
	"repro/internal/sim"
	"repro/internal/sweep"
)

// childSpec tells a set-up child what to set up.
type childSpec struct {
	Workload string   `json:"workload"`
	Seed     int64    `json:"seed"`
	WarmupPs uint64   `json:"warmup_ps"`
	Baseline string   `json:"baseline"`
	Suites   []string `json:"suites"`
}

// childTimes is what a set-up child reports about its own phases.
type childTimes struct {
	BuildMs float64 `json:"build_ms"`
	WarmupS float64 `json:"warmup_s"`
}

// measureSetup times o.setups fresh processes, each setting the workload up
// from nothing, so cold-start costs (process start, package init, the
// process-global hazard memo) count. A single-point child builds, attaches
// and warms one controller; a gate-sweep child loads the baselines and runs
// the sweep until its first job result.
func measureSetup(o options, st *runState) error {
	exe, err := os.Executable()
	if err != nil {
		return fmt.Errorf("set-up: %w", err)
	}
	spec, err := json.Marshal(childSpec{
		Workload: o.workload,
		Seed:     o.seed,
		WarmupPs: uint64(o.window.warmup),
		Baseline: o.baseline,
		Suites:   o.suites,
	})
	if err != nil {
		return err
	}
	for i := 0; i < o.setups; i++ {
		st.timeRef(refSetup)
		cmd := exec.Command(exe)
		cmd.Env = append(os.Environ(), setupEnv+"="+string(spec))
		var out bytes.Buffer
		cmd.Stdout = &out
		cmd.Stderr = os.Stderr
		t0 := time.Now()
		err := cmd.Run()
		wall := time.Since(t0)
		if err != nil {
			return fmt.Errorf("set-up child %d: %w", i+1, err)
		}
		var ct childTimes
		if err := json.Unmarshal(out.Bytes(), &ct); err != nil {
			return fmt.Errorf("set-up child %d: bad report %q: %w", i+1, out.String(), err)
		}
		st.samples.add("setup_s", wall.Seconds())
		if o.workload != gateSweep {
			st.samples.add("core.build_ms", ct.BuildMs)
			st.samples.add("core.warmup_s", ct.WarmupS)
		}
	}
	return nil
}

// setupChild is the set-up child's whole life: set up, report, exit.
func setupChild(specJSON string, stdout io.Writer) int {
	var spec childSpec
	if err := json.Unmarshal([]byte(specJSON), &spec); err != nil {
		fmt.Fprintln(os.Stderr, "nicperf: set-up child:", err)
		return 2
	}
	var ct childTimes
	var err error
	if spec.Workload == gateSweep {
		err = setupGate(spec)
	} else {
		ct, err = setupPoint(spec)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "nicperf: set-up child:", err)
		return 1
	}
	b, err := json.Marshal(ct)
	if err != nil {
		fmt.Fprintln(os.Stderr, "nicperf: set-up child:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(b))
	return 0
}

func setupPoint(spec childSpec) (childTimes, error) {
	p, ok := pointFor(spec.Workload)
	if !ok {
		return childTimes{}, fmt.Errorf("unknown workload %q", spec.Workload)
	}
	w := window{warmup: sim.Picoseconds(spec.WarmupPs)}
	t0 := time.Now()
	n, err := p.build(spec.Seed, w)
	if err != nil {
		return childTimes{}, err
	}
	t1 := time.Now()
	n.Engine.RunFor(w.warmup)
	t2 := time.Now()
	return childTimes{BuildMs: float64(t1.Sub(t0)) / float64(time.Millisecond), WarmupS: t2.Sub(t1).Seconds()}, nil
}

// setupGate runs the first suite until one job result arrives, then stops
// the sweep.
func setupGate(spec childSpec) error {
	g, err := loadGate(options{baseline: spec.Baseline, suites: spec.Suites})
	if err != nil {
		return err
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var once sync.Once
	got := false
	r := &sweep.Runner{
		Run:     experiments.Simulate,
		Workers: gateWorkers,
		OnResult: func(res sweep.Result) {
			once.Do(func() {
				got = res.OK()
				cancel()
			})
		},
	}
	// The error is the cancellation itself once the first result is in.
	_, _ = r.Sweep(ctx, g.suites[0])
	if !got {
		return fmt.Errorf("first gate job failed")
	}
	return nil
}
