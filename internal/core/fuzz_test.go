package core

import (
	"encoding/json"
	"math"
	"testing"

	"repro/internal/firmware"
	"repro/internal/sim"
	"repro/internal/workload"
)

// FuzzParseSLO asserts that ParseSLO never panics and that every SLO it
// accepts passes Validate and JSON-encodes, since accepted SLOs go into
// sweep spec hashes and reports.
func FuzzParseSLO(f *testing.F) {
	for _, s := range []string{
		"", "recv=400", "recv_p99_us=400,send_p99_us=1300", "send=10, drops=0.05",
		"max_drop_frac=0.5,recv=1,send=2", "drops=NaN", "send=+Inf", "recv=1e309",
		"recv=0x1p-2,,", "drops=1,drops=0",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		slo, err := ParseSLO(s)
		if err != nil {
			return
		}
		if err := slo.Validate(); err != nil {
			t.Fatalf("ParseSLO(%q) = %+v, which Validate rejects: %v", s, slo, err)
		}
		if _, err := json.Marshal(slo); err != nil {
			t.Fatalf("ParseSLO(%q) = %+v, which does not encode: %v", s, slo, err)
		}
	})
}

// FuzzConfig holds Validate to its contract over every field of Config, with
// core, bank and queue counts folded to just past their bounds (the bank and
// queue counts to the next power of two): a rejected config gets a non-empty
// error, and an accepted one builds, takes a workload (jumbo frames of up to
// 8972-byte datagrams on a jumbo build) and runs 20 µs without a panic or an
// invariant violation.
func FuzzConfig(f *testing.F) {
	f.Add(uint8(6), 166.0, uint8(4), uint8(1), uint8(1), uint8(0), "", false, uint16(1472))
	f.Add(uint8(8), 175.0, uint8(4), uint8(5), uint8(0), uint8(1), "flow", false, uint16(18))
	f.Add(uint8(1), 800.0, uint8(1), uint8(17), uint8(1), uint8(0), "rr", true, uint16(8972))
	f.Add(uint8(0), math.NaN(), uint8(3), uint8(4), uint8(2), uint8(5), "random", true, uint16(9000))
	f.Add(uint8(59), 200.0, uint8(64), uint8(9), uint8(0), uint8(0), "hash", false, uint16(0))
	f.Fuzz(func(t *testing.T, cores uint8, cpuMHz float64, banks, rxQueues, ordering, parallelism uint8, steering string, jumbo bool, udp uint16) {
		c := DefaultConfig()
		c.Cores = int(cores % 10)
		c.CPUMHz = cpuMHz
		c.ScratchpadBanks = int(banks % 65)
		c.RxQueues = int(rxQueues%18) - 1
		c.Ordering = firmware.Ordering(ordering % 4)
		c.Parallelism = firmware.Parallelism(parallelism % 4)
		c.Steering = steering
		c.JumboFrames = jumbo
		if err := c.Validate(); err != nil {
			if err.Error() == "" {
				t.Fatalf("Validate rejected %+v with an empty error", c)
			}
			return
		}
		n := New(c)
		if jumbo {
			ts := workload.TrafficSpec{Class: workload.ClassJumbo}
			if err := n.AttachTraffic(int(udp%8973), ts, false); err != nil {
				t.Fatalf("config %+v: %v", c, err)
			}
		} else {
			n.AttachWorkload(int(udp%1473), false)
		}
		if r := n.Run(0, 20*sim.Microsecond); r.InvariantViolations > 0 {
			t.Fatalf("config %+v: %d invariant violations: %v", c, r.InvariantViolations, r.InvariantDetail)
		}
	})
}
