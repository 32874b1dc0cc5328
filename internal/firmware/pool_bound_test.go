package firmware_test

import (
	"testing"

	"repro/internal/core"
	"repro/internal/firmware"
	"repro/internal/sim"
)

// TestFreeListBounded checks that the unbounded stream free list settles:
// over 10 simulated ms at the two stream-heaviest operating points, and at
// the task-parallel point whose streams are the largest, it never holds more
// than 8 streams per core. The list keeps every returned stream, whatever
// its size, so its length tracks the peak number of streams outstanding at
// once.
func TestFreeListBounded(t *testing.T) {
	if testing.Short() {
		t.Skip("simulates 30 ms")
	}
	const perCore = 8
	sw8 := core.DefaultConfig()
	sw8.Cores, sw8.CPUMHz = 8, 175
	task := core.DefaultConfig()
	task.CPUMHz, task.Parallelism = 150, firmware.TaskParallel
	for _, tc := range []struct {
		name string
		cfg  core.Config
		udp  int
	}{
		{"sw8x175-18B", sw8, 18},
		{"rmw6x166-1472B", core.RMWConfig(), 1472},
		{"task6x150-1472B", task, 1472},
	} {
		t.Run(tc.name, func(t *testing.T) {
			n := core.New(tc.cfg)
			n.AttachWorkload(tc.udp, false)
			peak := 0
			for end := n.Engine.Now() + 10*sim.Millisecond; n.Engine.Now() < end; {
				n.Engine.RunFor(sim.Microsecond)
				peak = max(peak, n.FW.FreeStreams())
			}
			t.Logf("free list peak %d streams (%d cores)", peak, tc.cfg.Cores)
			if limit := perCore * tc.cfg.Cores; peak > limit {
				t.Errorf("free list peaked at %d streams, want <= %d", peak, limit)
			}
		})
	}
}
