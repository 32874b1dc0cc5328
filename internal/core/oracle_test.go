package core

import (
	"bytes"
	"testing"

	"repro/internal/faults"
	"repro/internal/host"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/workload"
)

// TestSleepMatchesEveryEdge runs whole controllers on the sleeping engine
// and on the every-edge reference (EveryEdge) and requires byte-identical
// report JSON: both paper points with and without the reference fault plan,
// the software-only point at minimum frames, the hostile-rss point (mixed
// bursty traffic on 4 flow-steered queues, reference faults, latency
// observation) and an 8-queue RSS point. The fault points open and close the
// window-scoped hooks around sleeping cores and crossbar: overlapping slow
// and stuck windows on one core with overlapping bank errors, a core stuck
// for good, and short bank errors; the starvation point and the small rings
// make the sleeping host's entry points matter (starvation, lost doorbells,
// freed send slots, consumed receive buffers) and size the send frame table
// and ordering ring to 16 and 8 frames. The synchronized-burst point
// keeps the host polling its gated sender. Every point observes latency, so
// the reports carry the per-stage timings too.
func TestSleepMatchesEveryEdge(t *testing.T) {
	const (
		warmup  = 100 * sim.Microsecond
		measure = 300 * sim.Microsecond
	)
	plan := func(s string) faults.Plan {
		p, err := faults.ParsePlan(s)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	ref := faults.Reference(warmup)
	overlap := plan("seed=2;core_slow@150us+40us:2x3,core_stuck@170us+40us:2,bank_error@150us+30us:1,bank_error@160us+40us:3")
	stuck := plan("seed=3;core_stuck@150us:3")
	starve := plan("seed=4;mailbox_loss@120us*5,ring_starve@150us+20us,mailbox_loss@165us*3,ring_starve@250us+5us")
	banks := plan("seed=5;bank_error@150us+1us:0,bank_error@163us+1us:1,bank_error@177us+1us:2,bank_error@191us+1us:3,bank_error@205us+2us:0,bank_error@219us+1us:1,bank_error@233us+1us:2,bank_error@247us+3us:3")
	sw8 := DefaultConfig()
	sw8.Cores, sw8.CPUMHz = 8, 175
	rss4 := DefaultConfig()
	rss4.RxQueues, rss4.Steering = 4, "flow"
	rss8 := DefaultConfig()
	rss8.RxQueues, rss8.Steering = 8, "rr"
	paper := host.DefaultConfig()
	ring := func(n int) host.Config {
		h := paper
		h.SendRing, h.RecvRing = n, n
		return h
	}
	for _, pt := range []struct {
		name    string
		cfg     Config
		udp     int
		traffic string
		faults  faults.Plan
		host    host.Config
	}{
		{"6x166-rmw", RMWConfig(), 1472, "", faults.Plan{}, paper},
		{"6x166-rmw-faults", RMWConfig(), 1472, "", ref, paper},
		{"8x175-sw-faults", sw8, 1472, "", ref, paper},
		{"8x175-sw-18B", sw8, 18, "", faults.Plan{}, paper},
		{"hostile-rss", rss4, 1472, "mixed,burst,flows=64,seed=1", ref, paper},
		{"rss-q8", rss8, 1472, "mcast,burst,flows=64,seed=1", faults.Plan{}, paper},
		{"overlapping-windows", RMWConfig(), 1472, "", overlap, paper},
		{"stuck-for-good", DefaultConfig(), 1472, "", stuck, paper},
		{"starve-and-lost-doorbells", rss4, 1472, "", starve, ring(16)},
		{"bank-errors-pareto", DefaultConfig(), 1472, "uniform,pareto,seed=3", banks, ring(8)},
		{"sync-arrivals", DefaultConfig(), 1472, "uniform,sync,seed=1", faults.Plan{}, paper},
	} {
		t.Run(pt.name, func(t *testing.T) {
			run := func() ([]byte, uint64) {
				n := NewWithHost(pt.cfg, pt.host)
				if send, _ := n.FW.FrameTables(); send != pt.host.SendRing {
					t.Fatalf("send frame table holds %d records, want the host send ring's %d", send, pt.host.SendRing)
				}
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
				}
				n.EnableObs(obs.Config{})
				if err := n.AttachFaults(pt.faults); err != nil {
					t.Fatal(err)
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
