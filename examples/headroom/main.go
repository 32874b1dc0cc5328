// Headroom explores the paper's closing argument: "the use of a
// programmable interface with substantial computational and memory
// resources is motivated primarily by the ability to extend beyond Ethernet
// processing" (TCP offload, iSCSI, NIC-side caching, intrusion detection).
//
// The experiment layers extra per-frame work onto the frame handlers of the
// RMW-enhanced 166 MHz controller and finds how much service computation
// fits before full-duplex line rate is lost — the budget available to such
// extended services at this design point.
package main

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/firmware"
	"repro/internal/sim"
)

func main() {
	fmt.Println("extra per-frame service work vs throughput (6 cores @ 166 MHz, RMW)")
	for _, extra := range []int{0, 25, 50, 100, 200, 400} {
		nic := core.New(core.RMWConfig())
		// The firmware reads its cost model as it builds each stream, so
		// the extension takes effect from the run's first frame.
		nic.FW.Prof.ExtensionPerFrame = firmware.TaskCost{
			Instr: extra, Loads: extra / 6, Stores: extra / 10,
		}
		nic.AttachWorkload(1472, false)
		r := nic.Run(900*sim.Microsecond, 600*sim.Microsecond)
		fmt.Printf("  +%3d instr/frame: %6.2f Gb/s (%5.1f%% of line rate)\n",
			extra, r.TotalGbps, 100*r.LineFraction)
	}
	fmt.Println("\nthe knee marks the compute budget available to services like")
	fmt.Println("TCP offload or iSCSI without giving up 10 Gb/s full duplex")
}
