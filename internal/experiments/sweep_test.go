package experiments

import (
	"context"
	"encoding/json"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/firmware"
	"repro/internal/sweep"
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

// TestSpecRoundTrip checks that SpecFor/ConfigFor are inverse on the knobs
// the sweeps vary.
func TestSpecRoundTrip(t *testing.T) {
	cfg := core.RMWConfig()
	cfg.Cores = 4
	cfg.ScratchpadBanks = 2
	cfg.Parallelism = firmware.TaskParallel
	s := SpecFor(cfg, 800, Quick)
	got, err := ConfigFor(s)
	if err != nil {
		t.Fatal(err)
	}
	if got.Cores != 4 || got.CPUMHz != 166 || got.ScratchpadBanks != 2 ||
		got.Ordering != firmware.RMWEnhanced || got.Parallelism != firmware.TaskParallel {
		t.Errorf("round-trip config = %+v", got)
	}
	if b := BudgetOf(s); b != Quick {
		t.Errorf("round-trip budget = %+v", b)
	}
	if s.UDPSize != 800 {
		t.Errorf("udp size = %d", s.UDPSize)
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
