// nicsim runs one NIC configuration and prints its report.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/firmware"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/workload"
)

func main() {
	cores := flag.Int("cores", 6, "number of processing cores")
	mhz := flag.Float64("mhz", 200, "core and scratchpad frequency in MHz")
	banks := flag.Int("banks", 4, "scratchpad banks")
	udp := flag.Int("udp", 1472, "UDP datagram size in bytes")
	rmw := flag.Bool("rmw", false, "use the RMW-enhanced (set/update) firmware")
	taskpar := flag.Bool("taskparallel", false, "use the task-parallel (event register) baseline firmware")
	warmup := flag.Float64("warmup", 200, "warmup time in microseconds")
	measure := flag.Float64("measure", 500, "measurement time in microseconds")
	payload := flag.Bool("payload", false, "carry and verify real frame bytes")
	faultFlag := flag.String("faults", "", `fault plan: "ref" for the reference plan, compact syntax ("seed=1;rx_drop@250us*4,..."), or @file.json`)
	trafficFlag := flag.String("traffic", "", `adversarial traffic "class[,arrival][,seed=N][,flows=N]", e.g. "badcrc", "mcast,burst", "mixed,pareto,seed=7", "uniform,flows=64" (classes: uniform, jumbo, runt, oversize, badcrc, mcast, mixed, priority; arrivals: saturate, burst, pareto, sync)`)
	sloFlag := flag.String("slo", "", `latency/drop objective "recv_p99_us=40,send_p99_us=40,max_drop_frac=0.01"; empty values gate only survival (ordering, invariants, progress)`)
	jumbo := flag.Bool("jumbo", false, "build a jumbo-capable controller (implied by -traffic jumbo)")
	rxqueues := flag.Int("rxqueues", 1, "RSS receive queues (power of two; 1 = the single-ring controller)")
	steering := flag.String("steering", "", `RSS steering policy: "hash" (default), "rr", "flow"`)
	jsonOut := flag.Bool("json", false, "emit the report as JSON instead of text")
	traceOut := flag.String("trace", "", "write a Chrome trace_event file (load in Perfetto or chrome://tracing)")
	latency := flag.Bool("latency", false, "enable frame-lifecycle observation and report latency percentiles")
	traceSample := flag.Int("trace-sample", 1, "record every Nth frame's lifecycle instants in the trace")
	flag.Parse()

	cfg := core.DefaultConfig()
	cfg.Cores = *cores
	cfg.CPUMHz = *mhz
	cfg.ScratchpadBanks = *banks
	if *rmw {
		cfg.Ordering = firmware.RMWEnhanced
	}
	if *taskpar {
		cfg.Parallelism = firmware.TaskParallel
	}
	if *rxqueues != 1 {
		cfg.RxQueues = *rxqueues
	}
	cfg.Steering = *steering
	var traffic *workload.TrafficSpec
	if *trafficFlag != "" {
		ts, err := workload.ParseTraffic(*trafficFlag)
		if err != nil {
			fmt.Fprintf(os.Stderr, "nicsim: bad traffic spec: %v\n", err)
			os.Exit(2)
		}
		traffic = &ts
	}
	cfg.JumboFrames = *jumbo || (traffic != nil && traffic.Class == workload.ClassJumbo)
	var slo *core.SLO
	if *sloFlag != "" {
		s, err := core.ParseSLO(*sloFlag)
		if err != nil {
			fmt.Fprintf(os.Stderr, "nicsim: bad SLO: %v\n", err)
			os.Exit(2)
		}
		slo = &s
	}
	if err := cfg.Validate(); err != nil {
		fmt.Fprintf(os.Stderr, "nicsim: invalid configuration: %v\n", err)
		os.Exit(2)
	}

	warmupPs := sim.Picoseconds(*warmup) * sim.Microsecond
	var plan faults.Plan
	if *faultFlag != "" {
		var err error
		if *faultFlag == "ref" {
			// The reference plan starts after warmup so recovery behavior is
			// measured against a settled pipeline.
			plan = faults.Reference(warmupPs)
		} else if plan, err = faults.ParsePlan(*faultFlag); err != nil {
			fmt.Fprintf(os.Stderr, "nicsim: bad fault plan: %v\n", err)
			os.Exit(2)
		}
	}

	n := core.New(cfg)
	if traffic != nil {
		if err := n.AttachTraffic(*udp, *traffic, *payload); err != nil {
			fmt.Fprintf(os.Stderr, "nicsim: %v\n", err)
			os.Exit(2)
		}
	} else {
		n.AttachWorkload(*udp, *payload)
	}
	if err := n.AttachFaults(plan); err != nil {
		fmt.Fprintf(os.Stderr, "nicsim: %v\n", err)
		os.Exit(2)
	}
	if slo != nil {
		if err := n.AttachSLO(*slo); err != nil {
			fmt.Fprintf(os.Stderr, "nicsim: %v\n", err)
			os.Exit(2)
		}
	}
	var rec *obs.Recorder
	if *traceOut != "" {
		rec = n.EnableObs(obs.Config{Events: obs.DefaultEvents, FrameSample: *traceSample})
	} else if *latency {
		rec = n.EnableObs(obs.Config{})
	}
	rep := n.Run(warmupPs, sim.Picoseconds(*measure)*sim.Microsecond)
	if *traceOut != "" {
		f, err := os.Create(*traceOut)
		if err != nil {
			fmt.Fprintf(os.Stderr, "nicsim: %v\n", err)
			os.Exit(1)
		}
		if err := rec.WriteChromeTrace(f); err == nil {
			err = f.Close()
		} else {
			f.Close()
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "nicsim: write trace: %v\n", err)
			os.Exit(1)
		}
		total, dropped := rec.EventsRecorded()
		fmt.Fprintf(os.Stderr, "nicsim: wrote %s (%d events recorded, %d beyond ring capacity)\n", *traceOut, total, dropped)
	}
	if *jsonOut {
		b, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			fmt.Fprintf(os.Stderr, "nicsim: %v\n", err)
			os.Exit(1)
		}
		fmt.Println(string(b))
	} else {
		fmt.Print(rep.String())
	}
	if rep.TxOutOfOrder+rep.RxOutOfOrder > 0 {
		fmt.Fprintln(os.Stderr, "ERROR: ordering violated")
		os.Exit(1)
	}
	if rep.InvariantViolations > 0 {
		fmt.Fprintln(os.Stderr, "ERROR: run invariants violated")
		os.Exit(1)
	}
	if rep.SLO != nil && rep.SLO.Violations > 0 {
		fmt.Fprintf(os.Stderr, "ERROR: %d SLO violation(s)\n", rep.SLO.Violations)
		os.Exit(1)
	}
}
