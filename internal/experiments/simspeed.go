// This file is the simulation-speed benchmark layer: measured points at the
// paper's two headline operating points, persisted to a committed JSON file
// (BENCH_simspeed.json) that CI compares against fresh measurements within a
// declared tolerance. The gated metrics are simulated nanoseconds per
// wall-clock millisecond and heap bytes allocated per simulated microsecond;
// the second is wall-clock independent and nearly deterministic for a given
// build. The steady state allocates nothing, so what a point measures is the
// free lists still growing to their peak, plus runtime background work; its
// bound therefore has an absolute floor of slack (AllocSlackBytesPerSimUs)
// besides the relative tolerance.

package experiments

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"sort"
	"time"

	"repro/internal/core"
	"repro/internal/sim"
)

// SimSpeedSchema identifies the file layout; changing the meaning of a field
// must change the schema string so stale baselines fail loudly.
const SimSpeedSchema = "simspeed-v2"

// AllocSlackBytesPerSimUs is the least allocation growth per simulated
// microsecond CompareSimSpeed tolerates over a baseline: on a baseline of a
// few tens of bytes, the relative tolerance alone would be a few bytes,
// inside the noise. A regression to per-frame closures or records costs
// hundreds to thousands.
const AllocSlackBytesPerSimUs = 64

// SimSpeedPoint is one measured operating point.
type SimSpeedPoint struct {
	Name     string  `json:"name"`
	Cores    int     `json:"cores"`
	MHz      float64 `json:"mhz"`
	Ordering string  `json:"ordering"`

	// SimNsPerWallMs is simulated nanoseconds advanced per wall millisecond.
	SimNsPerWallMs float64 `json:"sim_ns_per_wall_ms"`
	// AllocBytesPerSimUs is heap bytes allocated per simulated microsecond
	// of the measurement window (gated).
	AllocBytesPerSimUs float64 `json:"alloc_bytes_per_sim_us"`
	// AllocsPerStep is heap allocations per engine step (mallocs/steps);
	// informational, not gated.
	AllocsPerStep float64 `json:"allocs_per_step"`
	// Steps is the number of engine steps the measurement covered.
	Steps uint64 `json:"steps"`
}

// SimSpeedFile is the committed benchmark baseline.
type SimSpeedFile struct {
	Schema string `json:"schema"`
	// Tolerance is the allowed fractional regression for both metrics
	// (0.25 = fail when a fresh measurement is >25% worse than baseline).
	Tolerance float64 `json:"tolerance"`
	// QuickSuiteWallSec records the wall time of `nicbench -quick -all` when
	// the baseline was captured, with the pre-optimization time kept for
	// context. Informational: wall time of a 90-second suite is too noisy to
	// gate on, so Compare only gates on the per-point metrics below.
	QuickSuiteWallSec     float64         `json:"quick_suite_wall_sec,omitempty"`
	QuickSuiteWallSecPrev float64         `json:"quick_suite_wall_sec_prev,omitempty"`
	Points                []SimSpeedPoint `json:"points"`
}

// SimSpeedSpecs returns the measured operating points: the paper's six-core
// 166 MHz RMW-enhanced point and an eight-core 175 MHz software-only point
// (the largest Figure 7 grid column).
func SimSpeedSpecs() []struct {
	Name string
	Cfg  core.Config
} {
	rmw := core.RMWConfig()
	big := core.DefaultConfig()
	big.Cores = 8
	big.CPUMHz = 175
	return []struct {
		Name string
		Cfg  core.Config
	}{
		{Name: "6c-166MHz-rmw", Cfg: rmw},
		{Name: "8c-175MHz-sw", Cfg: big},
	}
}

// MeasureSimSpeed runs every SimSpeedSpecs point for the given simulated
// window and returns measured points.
func MeasureSimSpeed(b Budget) []SimSpeedPoint {
	var out []SimSpeedPoint
	for _, s := range SimSpeedSpecs() {
		out = append(out, measurePoint(s.Name, s.Cfg, b))
	}
	return out
}

func measurePoint(name string, cfg core.Config, b Budget) SimSpeedPoint {
	n := core.New(cfg)
	n.AttachWorkload(1472, false)
	// Warm outside the measurement so steady state, not ring fill, is timed.
	n.Engine.RunFor(b.Warmup)

	var m0, m1 runtime.MemStats
	steps0 := n.Engine.Steps()
	runtime.ReadMemStats(&m0)
	t0 := time.Now() //nic:wallclock measuring wall time is this benchmark's purpose
	n.Engine.RunFor(b.Measure)
	wall := time.Since(t0) //nic:wallclock
	runtime.ReadMemStats(&m1)
	steps := n.Engine.Steps() - steps0

	p := SimSpeedPoint{
		Name:     name,
		Cores:    cfg.Cores,
		MHz:      cfg.CPUMHz,
		Ordering: cfg.Ordering.String(),
		Steps:    steps,
	}
	if wall > 0 {
		simNs := float64(b.Measure) / float64(sim.Nanosecond)
		p.SimNsPerWallMs = simNs / (float64(wall) / float64(time.Millisecond))
	}
	p.AllocBytesPerSimUs = float64(m1.TotalAlloc-m0.TotalAlloc) / (float64(b.Measure) / float64(sim.Microsecond))
	if steps > 0 {
		p.AllocsPerStep = float64(m1.Mallocs-m0.Mallocs) / float64(steps)
	}
	return p
}

// LoadSimSpeed reads a committed baseline file.
func LoadSimSpeed(path string) (SimSpeedFile, error) {
	var f SimSpeedFile
	b, err := os.ReadFile(path)
	if err != nil {
		return f, err
	}
	if err := json.Unmarshal(b, &f); err != nil {
		return f, fmt.Errorf("experiments: %s: %w", path, err)
	}
	if f.Schema != SimSpeedSchema {
		return f, fmt.Errorf("experiments: %s: schema %q, want %q", path, f.Schema, SimSpeedSchema)
	}
	return f, nil
}

// WriteSimSpeed writes the baseline file.
func WriteSimSpeed(path string, f SimSpeedFile) error {
	b, err := json.MarshalIndent(f, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// CompareSimSpeed checks fresh measurements against a baseline. A point
// regresses when it simulates >tolerance slower per wall millisecond, or
// allocates more bytes per simulated microsecond than the baseline plus the
// larger of tolerance×baseline and AllocSlackBytesPerSimUs. Missing or extra
// points are reported too.
func CompareSimSpeed(base SimSpeedFile, fresh []SimSpeedPoint) []string {
	tol := base.Tolerance
	if tol <= 0 {
		tol = 0.25
	}
	byName := map[string]SimSpeedPoint{}
	for _, p := range base.Points {
		byName[p.Name] = p
	}
	var bad []string
	for _, f := range fresh {
		b, ok := byName[f.Name]
		if !ok {
			bad = append(bad, fmt.Sprintf("%s: no baseline point", f.Name))
			continue
		}
		delete(byName, f.Name)
		if b.SimNsPerWallMs > 0 && f.SimNsPerWallMs < b.SimNsPerWallMs*(1-tol) {
			bad = append(bad, fmt.Sprintf("%s: %.0f sim-ns/wall-ms, baseline %.0f (-%.0f%% > %.0f%% tolerance)",
				f.Name, f.SimNsPerWallMs, b.SimNsPerWallMs,
				100*(1-f.SimNsPerWallMs/b.SimNsPerWallMs), 100*tol))
		}
		if slack := max(b.AllocBytesPerSimUs*tol, AllocSlackBytesPerSimUs); f.AllocBytesPerSimUs > b.AllocBytesPerSimUs+slack {
			bad = append(bad, fmt.Sprintf("%s: %.0f B/sim-us allocated, baseline %.0f (+%.0f > %.0f B/sim-us slack)",
				f.Name, f.AllocBytesPerSimUs, b.AllocBytesPerSimUs,
				f.AllocBytesPerSimUs-b.AllocBytesPerSimUs, slack))
		}
	}
	missing := make([]string, 0, len(byName))
	for name := range byName {
		missing = append(missing, name)
	}
	sort.Strings(missing)
	for _, name := range missing {
		bad = append(bad, fmt.Sprintf("%s: baseline point not measured", name))
	}
	return bad
}
