package core

import (
	"runtime"
	"testing"

	"repro/internal/sim"
)

// TestSteadyStateAllocations pins the simulator's steady-state allocation
// rate at zero at both simulation-speed points: the paper's six-core 166 MHz
// RMW point with 1472-byte datagrams, and eight cores at 175 MHz with
// software ordering and 18-byte datagrams, where most arriving frames are
// dropped at the MAC. Completions are typed records, and every per-frame
// object (frames, the firmware's frame and batch records, op streams, queue
// rings) is recycled through lists the NIC owns, which grow to the peak in
// flight. At 6×166 the transmit backlog fills the host's 512-frame send ring
// in about 3 ms, so the lists keep growing until then; the warm-up covers
// that. Later peaks a little above the first are absorbed by the lists'
// headroom or, rarely (a handful of allocations in tens of simulated ms),
// grow them once more.
func TestSteadyStateAllocations(t *testing.T) {
	if testing.Short() {
		t.Skip("simulates ~18 ms")
	}
	const (
		warmup  = 8 * sim.Millisecond
		window  = 100 * sim.Microsecond
		windows = 10
	)
	small := DefaultConfig()
	small.Cores, small.CPUMHz = 8, 175
	for _, p := range []struct {
		name string
		cfg  Config
		udp  int
	}{
		{"6c-166MHz-rmw-1472B", RMWConfig(), 1472},
		{"8c-175MHz-sw-18B", small, 18},
	} {
		t.Run(p.name, func(t *testing.T) {
			n := New(p.cfg)
			n.AttachWorkload(p.udp, false)
			n.Engine.RunFor(warmup)
			// As testing.AllocsPerRun does: one P, so that the runtime's
			// and other goroutines' allocations stay out of the windows,
			// and the collector's workers started beforehand.
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
			runtime.GC()
			var m0, m1 runtime.MemStats
			for i := 0; i < windows; i++ {
				runtime.ReadMemStats(&m0)
				n.Engine.RunFor(window)
				runtime.ReadMemStats(&m1)
				if allocs, bytes := m1.Mallocs-m0.Mallocs, m1.TotalAlloc-m0.TotalAlloc; allocs != 0 || bytes != 0 {
					t.Errorf("window %d: %d allocations, %d bytes per 100 µs simulated, want 0", i, allocs, bytes)
				}
			}
		})
	}
}

// TestNICReleasesHeap checks that everything a NIC recycles becomes garbage
// together with the NIC: no free list hangs off a package variable (it
// would keep the frames of the runs below), no sync.Pool keeps records past
// the NIC (its victim cache survives the one collection below), and no
// Report aliases memory the NIC owns. Building the NICs once first fills the
// process-wide caches (the measured ordering kernels); then two NICs run
// 1 ms each and are dropped with only their reports kept, and one
// collection must bring the heap back to within 16 KiB of a fully collected
// start.
func TestNICReleasesHeap(t *testing.T) {
	if testing.Short() {
		t.Skip("simulates 2 ms")
	}
	small := DefaultConfig()
	small.Cores, small.CPUMHz = 8, 175
	points := []struct {
		cfg Config
		udp int
	}{{RMWConfig(), 1472}, {small, 18}}
	reports := make([]Report, len(points))
	for _, p := range points {
		New(p.cfg).AttachWorkload(p.udp, false)
	}
	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.GC() // empty sync.Pool victim caches too
	runtime.ReadMemStats(&m0)
	for i, p := range points {
		n := New(p.cfg)
		n.AttachWorkload(p.udp, false)
		reports[i] = n.Run(0, sim.Millisecond)
	}
	runtime.GC()
	runtime.ReadMemStats(&m1)
	grown := int64(m1.HeapAlloc) - int64(m0.HeapAlloc)
	t.Logf("heap grew %d B across two dropped NICs", grown)
	if grown > 16<<10 {
		t.Errorf("heap grew %d B after the NICs were dropped, want <= 16 KiB: recycled state outlives its NIC", grown)
	}
	runtime.KeepAlive(reports)
}
