package sweep

import (
	"context"
	"encoding/json"
	"fmt"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/core"
)

// fakeRun fabricates a deterministic report from the spec so runner
// behavior can be tested without the cycle simulator.
func fakeRun(runs *atomic.Int64) RunFunc {
	return func(ctx context.Context, j Job) (Outcome, error) {
		if runs != nil {
			runs.Add(1)
		}
		r := &core.Report{TotalGbps: float64(j.Spec.Cores) * j.Spec.MHz / 100, IPC: 0.7}
		r.Cfg.Cores = j.Spec.Cores
		return Outcome{Report: r}, nil
	}
}

func grid(n int) []Job {
	jobs := make([]Job, n)
	for i := range jobs {
		jobs[i] = Job{
			ID:   fmt.Sprintf("grid/c%d", i+1),
			Spec: Spec{Kind: KindNIC, Cores: i + 1, MHz: 200, Banks: 4, UDPSize: 1472, Ordering: "sw", Parallelism: "frame"},
		}
	}
	return jobs
}

func TestHashStableAndDistinct(t *testing.T) {
	a := Spec{Kind: KindNIC, Cores: 6, MHz: 200}
	b := Spec{Kind: KindNIC, Cores: 6, MHz: 200}
	if a.Hash() != b.Hash() {
		t.Fatal("equal specs must hash equal")
	}
	c := a
	c.MHz = 166
	if a.Hash() == c.Hash() {
		t.Fatal("different specs must hash differently")
	}
	// Hashes are 24 hex digits; the baseline file keys its points by them.
	if h := a.Hash(); len(h) != 24 {
		t.Fatalf("hash length = %d, want 24", len(h))
	}
}

func TestParallelMatchesSerial(t *testing.T) {
	jobs := grid(12)
	serial := &Runner{Run: fakeRun(nil), Workers: 1}
	parallel := &Runner{Run: fakeRun(nil), Workers: 8}
	rs, err := serial.Sweep(context.Background(), jobs)
	if err != nil {
		t.Fatal(err)
	}
	rp, err := parallel.Sweep(context.Background(), jobs)
	if err != nil {
		t.Fatal(err)
	}
	js, _ := json.Marshal(canon(rs))
	jp, _ := json.Marshal(canon(rp))
	if string(js) != string(jp) {
		t.Errorf("parallel results differ from serial:\n%s\n%s", js, jp)
	}
}

func canon(rs []Result) []Result {
	out := make([]Result, len(rs))
	for i, r := range rs {
		out[i] = r.Canonical()
	}
	return out
}

func TestPanicFailsJobNotPool(t *testing.T) {
	run := func(ctx context.Context, j Job) (Outcome, error) {
		if j.Spec.Cores == 3 {
			panic("diverging simulation")
		}
		return fakeRun(nil)(ctx, j)
	}
	r := &Runner{Run: run, Workers: 4}
	rs, err := r.Sweep(context.Background(), grid(8))
	if err != nil {
		t.Fatal(err)
	}
	var failed, ok int
	for _, res := range rs {
		if res.OK() {
			ok++
		} else {
			failed++
			if !strings.Contains(res.Err, "diverging simulation") {
				t.Errorf("panic not recorded: %q", res.Err)
			}
		}
	}
	if failed != 1 || ok != 7 {
		t.Errorf("failed=%d ok=%d, want 1/7", failed, ok)
	}
}

func TestDuplicateSpecsSimulateOnce(t *testing.T) {
	var runs atomic.Int64
	jobs := append(grid(3), grid(3)...) // same three specs twice
	r := &Runner{Run: fakeRun(&runs), Workers: 4}
	rs, err := r.Sweep(context.Background(), jobs)
	if err != nil {
		t.Fatal(err)
	}
	if got := runs.Load(); got != 3 {
		t.Errorf("runs = %d, want 3 (duplicates deduplicated)", got)
	}
	if len(rs) != 6 {
		t.Fatalf("results = %d, want 6", len(rs))
	}
	for i, res := range rs {
		if !res.OK() || res.Report == nil {
			t.Errorf("result %d not filled: %+v", i, res)
		}
	}
}

// TestMemoHitSkipsSimulation: a second Sweep on the same Runner serves the
// points it already simulated from the memo and simulates only the new one.
func TestMemoHitSkipsSimulation(t *testing.T) {
	var runs atomic.Int64
	r := &Runner{Run: fakeRun(&runs), Workers: 2}
	if _, err := r.Sweep(context.Background(), grid(5)); err != nil {
		t.Fatal(err)
	}
	if runs.Load() != 5 {
		t.Fatalf("first sweep runs = %d, want 5", runs.Load())
	}

	rs, err := r.Sweep(context.Background(), grid(6))
	if err != nil {
		t.Fatal(err)
	}
	if runs.Load() != 6 {
		t.Errorf("total runs = %d, want 6 (only the new point simulates)", runs.Load())
	}
	cachedCount := 0
	for _, res := range rs {
		if res.Cached {
			cachedCount++
		}
	}
	if cachedCount != 5 {
		t.Errorf("cached results = %d, want 5", cachedCount)
	}
}

// TestCancellationKeepsFinishedResults: canceling mid-sweep returns ctx's
// error, keeps every finished result, and marks the undispatched jobs
// "canceled before start". The benchmark's set-up probe cancels a sweep
// after its first result and relies on exactly this.
func TestCancellationKeepsFinishedResults(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	var runs atomic.Int64
	run := func(rctx context.Context, j Job) (Outcome, error) {
		out, _ := fakeRun(&runs)(rctx, j)
		if runs.Load() == 3 {
			cancel() // interrupt the sweep after three jobs complete
		}
		return out, nil
	}
	r := &Runner{Run: run, Workers: 1}
	rs, err := r.Sweep(ctx, grid(10))
	if err == nil {
		t.Fatal("expected context error from canceled sweep")
	}
	done := 0
	for _, res := range rs {
		if res.OK() {
			done++
		} else if res.Err != "canceled before start" {
			t.Errorf("job %s: err = %q, want canceled before start", res.ID, res.Err)
		}
	}
	if done >= 10 || done < 3 {
		t.Fatalf("completed jobs = %d, want partial (3..9)", done)
	}
}

func TestCompareGatesRegressions(t *testing.T) {
	r := &Runner{Run: fakeRun(nil), Workers: 2}
	rs, err := r.Sweep(context.Background(), grid(4))
	if err != nil {
		t.Fatal(err)
	}
	bf := NewBaselines(rs)
	if len(bf.Baselines) != 4 {
		t.Fatalf("baselines = %d, want 4", len(bf.Baselines))
	}
	if v := Compare(rs, bf); len(v) != 0 {
		t.Fatalf("self-comparison violated: %v", v)
	}

	// Round-trip through disk.
	path := filepath.Join(t.TempDir(), "gate.json")
	if err := WriteBaselines(path, bf); err != nil {
		t.Fatal(err)
	}
	bf2, err := LoadBaselines(path)
	if err != nil {
		t.Fatal(err)
	}
	if v := Compare(rs, bf2); len(v) != 0 {
		t.Fatalf("round-tripped comparison violated: %v", v)
	}

	// Perturb one metric beyond tolerance: the gate must trip.
	bf2.Baselines[1].Metrics["total_gbps"] *= 1.10
	v := Compare(rs, bf2)
	if len(v) != 1 || v[0].Metric != "total_gbps" {
		t.Fatalf("violations = %v, want one total_gbps violation", v)
	}

	// Within a widened per-metric tolerance it passes again.
	bf2.Baselines[1].Tol = map[string]float64{"total_gbps": 0.25}
	if v := Compare(rs, bf2); len(v) != 0 {
		t.Fatalf("tolerance override ignored: %v", v)
	}

	// A missing point is a violation too.
	bf2.Baselines[1].Tol = nil
	bf2.Baselines[1].Metrics["total_gbps"] /= 1.10
	v = Compare(rs[:1], bf2)
	found := false
	for _, x := range v {
		if x.Metric == "<missing>" {
			found = true
		}
	}
	if !found {
		t.Fatalf("missing baseline point not flagged: %v", v)
	}
}
