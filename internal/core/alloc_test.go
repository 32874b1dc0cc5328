package core

import (
	"runtime"
	"testing"

	"repro/internal/sim"
)

// TestSteadyStateAllocations pins the simulator's steady-state allocation
// rate at the paper's six-core 166 MHz RMW point. The firmware recycles its
// op streams on a free list that grows to the peak number outstanding, so
// what remains per 100 simulated µs is the per-frame functional work
// (completion closures, frame records, DMA jobs): about 3,040 allocations
// and 131 KB, against about 3,600 and 2.46 MB when every handler built a
// fresh stream.
func TestSteadyStateAllocations(t *testing.T) {
	if testing.Short() {
		t.Skip("simulates ~2 ms")
	}
	const (
		window   = 100 * sim.Microsecond
		warmup   = 800 * sim.Microsecond
		runs     = 5
		maxAlloc = 3350      // allocations per window
		maxBytes = 256 << 10 // bytes per window
	)
	n := New(RMWConfig())
	n.AttachWorkload(1472, false)
	n.Engine.RunFor(warmup)
	// AllocsPerRun runs the window runs+1 times (one warm-up call).
	allocs := testing.AllocsPerRun(runs, func() { n.Engine.RunFor(window) })
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	n.Engine.RunFor(runs * window)
	runtime.ReadMemStats(&m1)
	perWindow := (m1.TotalAlloc - m0.TotalAlloc) / runs
	t.Logf("%.0f allocations, %d bytes per 100 µs simulated", allocs, perWindow)
	if allocs > maxAlloc {
		t.Errorf("%.0f allocations per 100 µs simulated, want <= %d", allocs, maxAlloc)
	}
	if perWindow > maxBytes {
		t.Errorf("%d bytes allocated per 100 µs simulated, want <= %d", perWindow, maxBytes)
	}
}
