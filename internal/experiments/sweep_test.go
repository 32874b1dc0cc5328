package experiments

import (
	"context"
	"encoding/json"
	"fmt"
	"testing"
	"time"

	"repro/internal/assist"
	"repro/internal/core"
	"repro/internal/firmware"
	"repro/internal/sweep"
	"repro/internal/workload"
)

// TestParallelSweepMatchesSerialJSON is the harness's core promise: an
// 8-worker Figure 7 sweep produces byte-identical results (as canonical
// JSON) to a one-worker sweep.
func TestParallelSweepMatchesSerialJSON(t *testing.T) {
	jobs := Figure7Jobs(tiny, []int{1, 2}, []float64{100, 200})

	serial := &sweep.Runner{Run: Simulate, Workers: 1}
	parallel := &sweep.Runner{Run: Simulate, Workers: 8}
	rs, err := serial.Sweep(context.Background(), jobs)
	if err != nil {
		t.Fatal(err)
	}
	rp, err := parallel.Sweep(context.Background(), jobs)
	if err != nil {
		t.Fatal(err)
	}
	for i := range rs {
		js, err := json.Marshal(rs[i].Canonical())
		if err != nil {
			t.Fatal(err)
		}
		jp, err := json.Marshal(rp[i].Canonical())
		if err != nil {
			t.Fatal(err)
		}
		if string(js) != string(jp) {
			t.Errorf("job %s: parallel JSON differs from serial:\nserial:   %s\nparallel: %s",
				jobs[i].ID, js, jp)
		}
	}
}

// TestSpecRoundTrip checks that a job runs exactly the Config it was built
// from: every Config field survives SpecFor, a JSON round trip of the spec,
// and ConfigFor, as do the datagram size and the budget.
func TestSpecRoundTrip(t *testing.T) {
	with := func(edit func(*core.Config)) core.Config {
		c := core.DefaultConfig()
		edit(&c)
		return c
	}
	uniform := workload.TrafficSpec{Class: workload.ClassUniform, Seed: 1}
	type roundTrip struct {
		name    string
		cfg     core.Config
		traffic *workload.TrafficSpec
	}
	cases := []roundTrip{
		{name: "default", cfg: core.DefaultConfig()},
		{name: "rmw", cfg: core.RMWConfig()},
		{name: "cores-mhz", cfg: with(func(c *core.Config) { c.Cores, c.CPUMHz = 4, 175 })},
		{name: "banks", cfg: with(func(c *core.Config) { c.ScratchpadBanks = 2 })},
		{name: "task-parallel", cfg: with(func(c *core.Config) { c.Parallelism = firmware.TaskParallel })},
		{name: "jumbo-uniform", cfg: with(func(c *core.Config) { c.JumboFrames = true }), traffic: &uniform},
	}
	for _, q := range []int{1, 8} {
		for _, st := range assist.SteeringNames {
			cases = append(cases, roundTrip{
				name: fmt.Sprintf("q%d-%s", q, st),
				cfg:  with(func(c *core.Config) { c.RxQueues, c.Steering = q, st }),
			})
		}
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := SpecFor(tc.cfg, 800, Quick)
			s.Traffic = tc.traffic
			b, err := json.Marshal(s)
			if err != nil {
				t.Fatal(err)
			}
			var back sweep.Spec
			if err := json.Unmarshal(b, &back); err != nil {
				t.Fatal(err)
			}
			if back.Hash() != s.Hash() {
				t.Errorf("JSON round trip moved the hash: %s -> %s", s.Hash(), back.Hash())
			}
			got, err := ConfigFor(back)
			if err != nil {
				t.Fatal(err)
			}
			if got != tc.cfg {
				t.Errorf("round-trip config = %+v, want %+v", got, tc.cfg)
			}
			if bud := BudgetOf(back); bud != Quick {
				t.Errorf("round-trip budget = %+v", bud)
			}
			if back.UDPSize != 800 {
				t.Errorf("udp size = %d", back.UDPSize)
			}
		})
	}
}

// TestSimulateCancellation: a canceled context fails the job promptly
// instead of running the full window, and returns no report.
func TestSimulateCancellation(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	big := Budget{Warmup: Full.Warmup * 100, Measure: Full.Measure * 100}
	jobs := DefaultJobs(big)
	start := time.Now()
	_, err := Simulate(ctx, jobs[0])
	if err == nil {
		t.Fatal("expected cancellation error")
	}
	if el := time.Since(start); el > 10*time.Second {
		t.Errorf("cancellation took %v, watchdog not stopping the engine", el)
	}
}

// TestFigure3Suite exercises the fig3 job kind end to end: the aux payload
// decodes to the cache sweep and the hit ratio grows with cache size.
func TestFigure3Suite(t *testing.T) {
	res := runJobs(t, Figure3Jobs(tiny, 50000))
	pts, err := Fig3Points(res[0])
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) < 3 {
		t.Fatalf("sweep points = %d", len(pts))
	}
	if pts[0].HitRatio >= pts[len(pts)-1].HitRatio {
		t.Errorf("hit ratio did not grow with cache size: %.3f -> %.3f",
			pts[0].HitRatio, pts[len(pts)-1].HitRatio)
	}
	if res[0].Report == nil {
		t.Error("fig3 job should carry the traced run's report")
	}
}

// TestSuitesRegistry sanity-checks the registry every nicbench invocation
// relies on: unique keys, enumerable job counts, and printable analytic
// suites.
func TestSuitesRegistry(t *testing.T) {
	seen := map[string]bool{}
	for _, s := range Suites() {
		if seen[s.Key] {
			t.Errorf("duplicate suite key %q", s.Key)
		}
		seen[s.Key] = true
		if s.Jobs == nil || s.Print == nil {
			t.Errorf("suite %q missing Jobs or Print", s.Key)
		}
		jobs := s.Jobs(Quick)
		ids := map[string]bool{}
		for _, j := range jobs {
			if ids[j.ID] {
				t.Errorf("suite %q: duplicate job id %q", s.Key, j.ID)
			}
			ids[j.ID] = true
			if j.Spec.MeasurePs == 0 {
				t.Errorf("suite %q job %q: zero measure window", s.Key, j.ID)
			}
		}
	}
	for _, key := range []string{"figure7", "figure8", "gate", "table5"} {
		if _, ok := SuiteByKey(key); !ok {
			t.Errorf("suite %q missing", key)
		}
	}
	if n := len(Figure7Jobs(Quick, PaperFig7Cores, PaperFig7MHz)); n != 45 {
		t.Errorf("figure7 grid = %d jobs, want 45", n)
	}
}
