package experiments

import (
	"fmt"
	"io"

	"repro/internal/assist"
	"repro/internal/core"
	"repro/internal/sweep"
	"repro/internal/workload"
)

// ---------------------------------------------------------------------------
// RSS — multi-queue receive: queue counts × steering policies
// ---------------------------------------------------------------------------

// rssFlows is the adversarial flow mix every RSS job steers: enough distinct
// flow identities that each policy's spread across queues is measurable.
const rssFlows = 64

// RSSJobs enumerates the RSS sweep: every queue count crossed with every
// steering policy on a multi-flow uniform stream, three hostile crossover
// points from the robustness traffic matrix at representative queue counts,
// and the single-queue collapse point, a one-queue controller whose metrics
// equal the single-ring controller's under the same traffic.
func RSSJobs(b Budget) []sweep.Job {
	var jobs []sweep.Job
	add := func(id string, queues int, steering string, udpSize int, t workload.TrafficSpec) {
		cfg := core.DefaultConfig()
		cfg.RxQueues = queues
		cfg.Steering = steering
		spec := SpecFor(cfg, udpSize, b)
		tt := t
		spec.Traffic = &tt
		jobs = append(jobs, sweep.Job{ID: "rss/" + id, Spec: spec})
	}
	uniform := workload.TrafficSpec{Class: workload.ClassUniform, Seed: 1, Flows: rssFlows}
	add("q1-collapse", 1, "", 1472, uniform)
	for _, q := range []int{2, 4, 8} {
		for _, st := range assist.SteeringNames {
			add(fmt.Sprintf("q%d-%s", q, st), q, st, 1472, uniform)
		}
	}
	// Hostile crossovers: the matrix's nastiest arrivals with flows to steer.
	add("q4-mixed-pareto", 4, "hash", 1472,
		workload.TrafficSpec{Class: workload.ClassMixed, Arrival: workload.ArrivalPareto, Seed: 1, Flows: rssFlows})
	add("q4-priority-sync", 4, "flow", 1472,
		workload.TrafficSpec{Class: workload.ClassPriority, Arrival: workload.ArrivalSync, Seed: 1, Flows: rssFlows})
	add("q8-mcast-burst", 8, "rr", 1472,
		workload.TrafficSpec{Class: workload.ClassMcast, Arrival: workload.ArrivalBurst, Seed: 1, Flows: rssFlows})
	return jobs
}

// PrintRSS renders the RSS sweep: per point, throughput, queue skew,
// cross-queue reordering (expected under RSS), and the per-queue ordering
// violations (which must stay zero — per-queue in-order delivery is the
// invariant multi-queue receive keeps).
func PrintRSS(w io.Writer, results []sweep.Result) error {
	rs, err := ReportsOf(results)
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "RSS: multi-queue receive, queue counts × steering policies")
	for i, r := range rs {
		if r.RSS == nil {
			fmt.Fprintf(w, "  %-22s single ring (seed path): %6.2f Gb/s, rx out-of-order %d\n",
				results[i].ID, r.TotalGbps, r.RxOutOfOrder)
			continue
		}
		var ooo, drops uint64
		for _, q := range r.RSS.PerQueue {
			ooo += q.OutOfOrder
			drops += q.Drops
		}
		fmt.Fprintf(w, "  %-22s q%d %-5s %6.2f Gb/s | skew %.3f | cross-reorder %6d | per-queue ooo %d, drops %d\n",
			results[i].ID, r.RSS.Queues, r.RSS.Steering, r.TotalGbps,
			r.RSS.QueueSkew, r.RSS.CrossReorder, ooo, drops)
	}
	return nil
}
