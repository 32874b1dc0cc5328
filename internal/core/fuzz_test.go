package core

import (
	"encoding/json"
	"math"
	"testing"

	"repro/internal/firmware"
	"repro/internal/sim"
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

// FuzzConfig holds Validate to its contract over the numeric and enum
// fields of Config, clamped to sizes a test can run: a rejected config gets
// a non-empty error, and an accepted one builds, takes a workload and runs
// 20 µs without a panic or an invariant violation.
func FuzzConfig(f *testing.F) {
	f.Add(uint8(6), 166.0, 500.0, uint8(4), uint16(512), uint16(512), uint8(4), uint8(1), uint8(1), uint8(0), uint16(1472))
	f.Add(uint8(8), 175.0, 500.0, uint8(4), uint16(512), uint16(512), uint8(4), uint8(5), uint8(0), uint8(1), uint16(18))
	f.Add(uint8(1), 800.0, 250.0, uint8(1), uint16(1), uint16(1), uint8(1), uint8(17), uint8(1), uint8(0), uint16(0))
	f.Add(uint8(0), math.NaN(), math.Inf(1), uint8(3), uint16(0), uint16(0), uint8(0), uint8(4), uint8(2), uint8(5), uint16(9000))
	f.Fuzz(func(t *testing.T, cores uint8, cpuMHz, sdramMHz float64, banks uint8, txSlots, rxSlots uint16, dmaDepth, rxQueues, ordering, parallelism uint8, udp uint16) {
		c := DefaultConfig()
		c.Cores = int(cores % 20)
		c.CPUMHz = clampMHz(cpuMHz)
		c.SDRAMMHz = clampMHz(sdramMHz)
		c.ScratchpadBanks = int(banks % 10)
		c.TxSlots = int(txSlots % 1100)
		c.RxSlots = int(rxSlots % 1100)
		c.DMADepth = int(dmaDepth % 10)
		c.RxQueues = int(rxQueues%20) - 1
		c.Ordering = firmware.Ordering(ordering % 4)
		c.Parallelism = firmware.Parallelism(parallelism % 4)
		if err := c.Validate(); err != nil {
			if err.Error() == "" {
				t.Fatalf("Validate rejected %+v with an empty error", c)
			}
			return
		}
		n := New(c)
		n.AttachWorkload(int(udp%1473), false)
		if r := n.Run(0, 20*sim.Microsecond); r.InvariantViolations > 0 {
			t.Fatalf("config %+v: %d invariant violations: %v", c, r.InvariantViolations, r.InvariantDetail)
		}
	})
}

// clampMHz folds a finite fuzzed clock into (-1000, 1000) MHz, so accepted
// configs simulate quickly, and passes non-finite values through for
// Validate to reject.
func clampMHz(v float64) float64 {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return v
	}
	return math.Mod(v, 1000)
}
