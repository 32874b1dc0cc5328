package core

import (
	"bytes"
	"testing"

	"repro/internal/faults"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/workload"
)

// TestSleepMatchesEveryEdge runs whole controllers on the sleeping engine
// and on the every-edge reference (EveryEdge) and requires byte-identical
// report JSON: both paper points with and without the reference fault plan,
// the software-only point at minimum frames, the hostile-rss point (mixed
// bursty traffic on 4 flow-steered queues, reference faults, latency
// observation) and an 8-queue RSS point.
func TestSleepMatchesEveryEdge(t *testing.T) {
	const (
		warmup  = 100 * sim.Microsecond
		measure = 300 * sim.Microsecond
	)
	sw8 := DefaultConfig()
	sw8.Cores, sw8.CPUMHz = 8, 175
	rss4 := DefaultConfig()
	rss4.RxQueues, rss4.Steering = 4, "flow"
	rss8 := DefaultConfig()
	rss8.RxQueues, rss8.Steering = 8, "rr"
	for _, pt := range []struct {
		name    string
		cfg     Config
		udp     int
		traffic string
		faults  bool
	}{
		{"6x166-rmw", RMWConfig(), 1472, "", false},
		{"6x166-rmw-faults", RMWConfig(), 1472, "", true},
		{"8x175-sw-faults", sw8, 1472, "", true},
		{"8x175-sw-18B", sw8, 18, "", false},
		{"hostile-rss", rss4, 1472, "mixed,burst,flows=64,seed=1", true},
		{"rss-q8", rss8, 1472, "mcast,burst,flows=64,seed=1", false},
	} {
		t.Run(pt.name, func(t *testing.T) {
			run := func() ([]byte, uint64) {
				n := New(pt.cfg)
				if pt.traffic == "" {
					n.AttachWorkload(pt.udp, false)
				} else {
					ts, err := workload.ParseTraffic(pt.traffic)
					if err != nil {
						t.Fatal(err)
					}
					if err := n.AttachTraffic(pt.udp, ts, false); err != nil {
						t.Fatal(err)
					}
					n.EnableObs(obs.Config{})
				}
				if pt.faults {
					if err := n.AttachFaults(faults.Reference(warmup)); err != nil {
						t.Fatal(err)
					}
				}
				b, err := n.Run(warmup, measure).JSON()
				if err != nil {
					t.Fatal(err)
				}
				return b, n.Engine.Steps()
			}
			sleeping, steps := run()
			var ref []byte
			var refSteps uint64
			EveryEdge(func() { ref, refSteps = run() })
			if refSteps <= steps {
				t.Fatalf("reference took %d engine steps, the sleeping engine %d: the reference sleeps", refSteps, steps)
			}
			if !bytes.Equal(sleeping, ref) {
				t.Errorf("sleeping engine diverges from the every-edge reference:\nsleeping: %s\nref:      %s", sleeping, ref)
			}
		})
	}
}
