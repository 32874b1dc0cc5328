package experiments

import (
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/sweep"
	"repro/internal/workload"
)

// TestSpecHashStability pins the content hash of two representative specs.
// The hash keys every baseline in baselines/gate.json; if it moves, every
// committed baseline silently detaches from its spec. Adding optional
// (omitempty) fields like Traffic/SLO must NOT change the hash of specs that
// leave them unset — these constants are the proof.
func TestSpecHashStability(t *testing.T) {
	if got := SpecFor(core.DefaultConfig(), 1472, Quick).Hash(); got != "734783e9a54f0e58f083084e" {
		t.Errorf("SpecFor(DefaultConfig, 1472, Quick).Hash() = %s; committed baselines no longer match their specs", got)
	}
	if got := SpecFor(core.RMWConfig(), 400, Full).Hash(); got != "f733ae78c24cec73472bd8bc" {
		t.Errorf("SpecFor(RMWConfig, 400, Full).Hash() = %s; committed baselines no longer match their specs", got)
	}
}

// TestSpecHashSensitivity: arming Traffic or SLO must move the hash (they are
// semantically different runs), and distinct specs must not collide.
func TestSpecHashSensitivity(t *testing.T) {
	base := SpecFor(core.DefaultConfig(), 1472, Quick)
	h0 := base.Hash()

	traffic := base
	ts := workload.TrafficSpec{Class: workload.ClassRunt, Seed: 1}
	traffic.Traffic = &ts
	if traffic.Hash() == h0 {
		t.Error("attaching a traffic spec did not change the hash")
	}

	slo := base
	s := core.SLO{RecvP99Us: 400}
	slo.SLO = &s
	if slo.Hash() == h0 {
		t.Error("attaching an SLO did not change the hash")
	}
	if slo.Hash() == traffic.Hash() {
		t.Error("traffic-armed and SLO-armed specs collide")
	}

	ts2 := ts
	ts2.Seed = 2
	traffic2 := base
	traffic2.Traffic = &ts2
	if traffic2.Hash() == traffic.Hash() {
		t.Error("different traffic seeds hash identically")
	}

	jumbo := core.DefaultConfig()
	jumbo.JumboFrames = true
	if SpecFor(jumbo, 1472, Quick).Hash() == h0 {
		t.Error("specs differing only in JumboFrames hash identically")
	}
	oneQueue := core.DefaultConfig()
	oneQueue.RxQueues = 1
	if SpecFor(oneQueue, 1472, Quick).Hash() == h0 {
		t.Error("specs differing only in RxQueues 0 vs 1 hash identically")
	}
}

func TestRobustnessJobsShape(t *testing.T) {
	jobs := RobustnessJobs(Quick)
	matrix := TrafficMatrix()
	if len(jobs) != 2*len(matrix) {
		t.Fatalf("%d jobs for %d matrix points, want clean+faulted pairs", len(jobs), len(matrix))
	}
	seen := map[string]bool{}
	for i, pt := range matrix {
		clean, faulted := jobs[2*i], jobs[2*i+1]
		if clean.ID != "robustness/"+pt.Name+"-clean" || faulted.ID != "robustness/"+pt.Name+"-faulted" {
			t.Fatalf("point %s: job IDs %q, %q", pt.Name, clean.ID, faulted.ID)
		}
		if clean.Spec.Traffic == nil || *clean.Spec.Traffic != pt.Traffic {
			t.Errorf("%s: clean job traffic %+v, want %+v", pt.Name, clean.Spec.Traffic, pt.Traffic)
		}
		if clean.Spec.SLO == nil || faulted.Spec.SLO == nil || *clean.Spec.SLO != *faulted.Spec.SLO {
			t.Errorf("%s: clean and faulted jobs must share the SLO", pt.Name)
		}
		if clean.Spec.Faults != nil {
			t.Errorf("%s: clean job carries a fault plan", pt.Name)
		}
		if faulted.Spec.Faults == nil || len(faulted.Spec.Faults.Events) == 0 {
			t.Errorf("%s: faulted job has no fault events", pt.Name)
		}
		if faulted.Spec.Faults != nil {
			for _, e := range faulted.Spec.Faults.Events {
				if e.At < Quick.Warmup {
					t.Errorf("%s: fault at %v lands inside warmup (< %v)", pt.Name, e.At, Quick.Warmup)
				}
			}
		}
		if seen[clean.Spec.Hash()] || seen[faulted.Spec.Hash()] {
			t.Errorf("%s: duplicate spec hash in matrix", pt.Name)
		}
		seen[clean.Spec.Hash()] = true
		seen[faulted.Spec.Hash()] = true

		wantJumbo := pt.Traffic.Class == workload.ClassJumbo
		for _, j := range []sweep.Job{clean, faulted} {
			if j.Spec.Cfg.JumboFrames != wantJumbo {
				t.Errorf("%s: Spec.Cfg.JumboFrames = %v, want %v", j.ID, j.Spec.Cfg.JumboFrames, wantJumbo)
			}
		}
		if !pt.SLO.NeedsLatency() {
			t.Errorf("%s: matrix SLO has no latency bound — the gate would not exercise the tails", pt.Name)
		}
	}
}

func TestRobustnessSuiteRegistered(t *testing.T) {
	for _, s := range Suites() {
		if s.Key == "robustness" {
			if !strings.Contains(s.Desc, "adversarial") {
				t.Errorf("robustness suite description %q does not mention its purpose", s.Desc)
			}
			return
		}
	}
	t.Fatal("robustness suite not registered")
}
