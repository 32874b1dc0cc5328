package experiments

import (
	"fmt"
	"io"

	"repro/internal/core"
	"repro/internal/ethernet"
	"repro/internal/faults"
	"repro/internal/sim"
	"repro/internal/sweep"
	"repro/internal/workload"
)

// ---------------------------------------------------------------------------
// Robustness — adversarial traffic matrix with gated latency SLOs
// ---------------------------------------------------------------------------

// MatrixPoint is one point of the adversarial traffic matrix: a hostile
// traffic class under one arrival process, the latency/drop objective the
// controller must meet on it, and the fault plan the class is additionally
// paired with. Every point runs twice — clean and faulted — under the same
// SLO, so "survive this fault plan under this traffic" is itself a gated,
// sweepable assertion.
type MatrixPoint struct {
	Name    string
	UDPSize int
	Traffic workload.TrafficSpec
	SLO     core.SLO
	// Plan builds the paired fault plan with events anchored at start
	// (typically the end of warmup, so every fault lands inside the
	// measurement window).
	Plan func(start sim.Picoseconds) faults.Plan
}

// TrafficMatrix is the adversarial matrix: every traffic class crossed with
// a stressing arrival process and the fault class most likely to compound
// it. The SLO thresholds are the committed objectives; gate.json pins the
// measured results on top, so both "the bound moved past its threshold" and
// "the measurement drifted more than tolerance" fail -check.
//
// The p99 bounds carry roughly 2x headroom over the measured quick-budget
// values, so they gate real tail regressions, not noise in an intentional
// model change.
func TrafficMatrix() []MatrixPoint {
	us := func(n uint64) sim.Picoseconds { return sim.Picoseconds(n) * sim.Microsecond }
	plan := func(seed int64, evs ...faults.Event) func(sim.Picoseconds) faults.Plan {
		return func(start sim.Picoseconds) faults.Plan {
			p := faults.Plan{Seed: seed}
			for _, e := range evs {
				e.At += start
				p.Events = append(p.Events, e)
			}
			return p
		}
	}
	return []MatrixPoint{
		{
			// Baseline class under bursty on/off arrivals; DMA faults attack
			// the transfer path the bursts stress hardest.
			Name:    "uniform-burst",
			UDPSize: 1472,
			Traffic: workload.TrafficSpec{Class: workload.ClassUniform, Arrival: workload.ArrivalBurst, Seed: 1},
			SLO:     core.SLO{RecvP99Us: 400, SendP99Us: 1300, MaxDropFrac: 0.02},
			Plan: plan(1,
				faults.Event{Kind: faults.DMALoss, At: us(30), Count: 2},
				faults.Event{Kind: faults.DMADup, At: us(70), Count: 2}),
		},
		{
			// Jumbo frames saturate the frame-memory path; a bank error hits
			// the scratchpad crossbar underneath it.
			Name:    "jumbo-saturate",
			UDPSize: ethernet.JumboMaxUDPPayload,
			Traffic: workload.TrafficSpec{Class: workload.ClassJumbo, Seed: 1},
			SLO:     core.SLO{RecvP99Us: 100, SendP99Us: 5000, MaxDropFrac: 0.02},
			Plan: plan(1,
				faults.Event{Kind: faults.BankError, At: us(40), Dur: us(10), Target: 1}),
		},
		{
			// Runt floods at line rate; wire drops compound the reject path.
			Name:    "runt-saturate",
			UDPSize: 1472,
			Traffic: workload.TrafficSpec{Class: workload.ClassRunt, Seed: 1},
			SLO:     core.SLO{RecvP99Us: 200, SendP99Us: 1300, MaxDropFrac: 0.02},
			Plan: plan(1,
				faults.Event{Kind: faults.RxDrop, At: us(30), Count: 4}),
		},
		{
			// Oversize frames under heavy-tailed gaps; a slowed core stretches
			// the firmware pipeline while admission rejects the floods.
			Name:    "oversize-pareto",
			UDPSize: 1472,
			Traffic: workload.TrafficSpec{Class: workload.ClassOversize, Arrival: workload.ArrivalPareto, Seed: 1},
			SLO:     core.SLO{RecvP99Us: 200, SendP99Us: 1300, MaxDropFrac: 0.02},
			Plan: plan(1,
				faults.Event{Kind: faults.CoreSlow, At: us(40), Dur: us(20), Target: 2, Factor: 4}),
		},
		{
			// CRC floods at line rate plus injected corruption: both FCS-reject
			// paths (adversarial and fault-injected) active at once.
			Name:    "badcrc-saturate",
			UDPSize: 1472,
			Traffic: workload.TrafficSpec{Class: workload.ClassBadCRC, Seed: 1},
			SLO:     core.SLO{RecvP99Us: 200, SendP99Us: 1300, MaxDropFrac: 0.02},
			Plan: plan(1,
				faults.Event{Kind: faults.RxCorrupt, At: us(30), Count: 4}),
		},
		{
			// Multicast/broadcast rotation with address filtering under bursts;
			// mailbox losses attack the notification path.
			Name:    "mcast-burst",
			UDPSize: 1472,
			Traffic: workload.TrafficSpec{Class: workload.ClassMcast, Arrival: workload.ArrivalBurst, Seed: 1},
			SLO:     core.SLO{RecvP99Us: 200, SendP99Us: 1300, MaxDropFrac: 0.02},
			Plan: plan(1,
				faults.Event{Kind: faults.MailboxLoss, At: us(30), Count: 3}),
		},
		{
			// Mixed Figure-8 sizes under heavy-tailed gaps; a stuck core forces
			// a takeover mid-stream.
			Name:    "mixed-pareto",
			UDPSize: 1472,
			Traffic: workload.TrafficSpec{Class: workload.ClassMixed, Arrival: workload.ArrivalPareto, Seed: 1},
			// Over half the offered small frames exceed firmware capacity at
			// line rate (the Figure-8 small-frame wall), so the drop budget is
			// the loosest in the matrix.
			SLO: core.SLO{RecvP99Us: 1200, SendP99Us: 1300, MaxDropFrac: 0.6},
			Plan: plan(1,
				faults.Event{Kind: faults.CoreStuck, At: us(40), Dur: us(20), Target: 1}),
		},
		{
			// Two-level priority split under synchronized full-duplex bursts —
			// the worst case for shared firmware state — plus ring starvation.
			Name:    "priority-sync",
			UDPSize: 1472,
			Traffic: workload.TrafficSpec{Class: workload.ClassPriority, Arrival: workload.ArrivalSync, Seed: 1},
			SLO:     core.SLO{RecvP99Us: 250, SendP99Us: 1300, MaxDropFrac: 0.15},
			Plan: plan(1,
				faults.Event{Kind: faults.RingStarve, At: us(40), Dur: us(10)}),
		},
	}
}

// RobustnessJobs enumerates the adversarial matrix: every point clean and
// then under its paired fault plan, with the same SLO armed on both. The
// jumbo point runs on a jumbo-capable build.
func RobustnessJobs(b Budget) []sweep.Job {
	var jobs []sweep.Job
	for _, pt := range TrafficMatrix() {
		cfg := core.DefaultConfig()
		cfg.JumboFrames = pt.Traffic.Class == workload.ClassJumbo
		spec := SpecFor(cfg, pt.UDPSize, b)
		t := pt.Traffic
		spec.Traffic = &t
		s := pt.SLO
		spec.SLO = &s
		jobs = append(jobs, sweep.Job{ID: "robustness/" + pt.Name + "-clean", Spec: spec})
		faulted := spec
		p := pt.Plan(b.Warmup)
		faulted.Faults = &p
		jobs = append(jobs, sweep.Job{ID: "robustness/" + pt.Name + "-faulted", Spec: faulted})
	}
	return jobs
}

// PrintRobustness renders the matrix: per point, clean vs faulted
// throughput, the hostile frames the MAC rejected, the observed tails, and
// the SLO verdicts. Results arrive paired (clean, faulted per point).
func PrintRobustness(w io.Writer, results []sweep.Result) error {
	rs, err := ReportsOf(results)
	if err != nil {
		return err
	}
	if len(rs)%2 != 0 {
		return fmt.Errorf("experiments: robustness needs paired reports, got %d", len(rs))
	}
	fmt.Fprintln(w, "Robustness: adversarial traffic matrix, clean vs faulted, gated SLOs")
	for i := 0; i < len(rs); i += 2 {
		clean, faulted := rs[i], rs[i+1]
		t := clean.Traffic
		if t == nil {
			return fmt.Errorf("experiments: job %s has no traffic section", results[i].ID)
		}
		arr := t.Arrival
		if arr == "" {
			arr = "saturate"
		}
		fmt.Fprintf(w, "  %-10s %-9s clean %6.2f Gb/s | faulted %6.2f Gb/s | rejected %d (runt/over/crc/filt %d/%d/%d/%d)\n",
			t.Class, arr, clean.TotalGbps, faulted.TotalGbps,
			faulted.Traffic.HostileRejected(),
			faulted.Traffic.RuntDrops, faulted.Traffic.OversizeDrops,
			faulted.Traffic.BadCRCDrops, faulted.Traffic.FilteredDrops)
		for _, pair := range []struct {
			tag string
			r   core.Report
		}{{"clean", clean}, {"faulted", faulted}} {
			if pair.r.SLO == nil {
				continue
			}
			verdict := "pass"
			if pair.r.SLO.Violations > 0 {
				verdict = fmt.Sprintf("%d VIOLATION(S)", pair.r.SLO.Violations)
			}
			p99 := func(dir string) string {
				if pair.r.Latency == nil {
					return "-"
				}
				if dir == "recv" {
					return fmt.Sprintf("%.2f", pair.r.Latency.Recv.P99Us)
				}
				return fmt.Sprintf("%.2f", pair.r.Latency.Send.P99Us)
			}
			fmt.Fprintf(w, "    %-8s slo %s (recv p99 %s µs, send p99 %s µs)\n",
				pair.tag, verdict, p99("recv"), p99("send"))
		}
	}
	return nil
}
