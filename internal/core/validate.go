package core

import (
	"fmt"
	"math"

	"repro/internal/assist"
	"repro/internal/firmware"
)

// Hardware-model limits on the configured counts. The CPU clock domain's
// sleep masks hold 64 tickers: the cores, the four assists, the crossbar and
// the instruction memory. The crossbar's masks hold 64 ports and 63 banks,
// and the banks must word-interleave the fixed scratchpad, so they are a
// power of two.
const (
	maxCores = 64 - 4 - 2
	maxBanks = 32
)

// Validate reports the first configuration error, if any. New panics on an
// invalid configuration, so user-facing entry points (nicsim, nicbench)
// should Validate first and turn errors into clean exits.
func (c Config) Validate() error {
	if c.Cores <= 0 || c.Cores > maxCores {
		return fmt.Errorf("cores must be 1 to %d, got %d", maxCores, c.Cores)
	}
	if !(c.CPUMHz > 0) || math.IsInf(c.CPUMHz, 0) {
		return fmt.Errorf("CPU clock must be a positive, finite frequency, got %g MHz", c.CPUMHz)
	}
	if c.ScratchpadBanks <= 0 || c.ScratchpadBanks > maxBanks {
		return fmt.Errorf("scratchpad banks must be 1 to %d, got %d", maxBanks, c.ScratchpadBanks)
	}
	if scratchpadBytes%(4*c.ScratchpadBanks) != 0 {
		return fmt.Errorf("the %d B scratchpad is not word-interleavable across %d banks (use a power of two)", scratchpadBytes, c.ScratchpadBanks)
	}
	if c.Ordering != firmware.SoftwareOnly && c.Ordering != firmware.RMWEnhanced {
		return fmt.Errorf("unknown frame ordering %d (use %d for %s or %d for %s)", c.Ordering,
			firmware.SoftwareOnly, firmware.SoftwareOnly, firmware.RMWEnhanced, firmware.RMWEnhanced)
	}
	if c.Parallelism != firmware.FrameParallel && c.Parallelism != firmware.TaskParallel {
		return fmt.Errorf("unknown firmware parallelism %d (use %d for %s or %d for %s)", c.Parallelism,
			firmware.FrameParallel, firmware.FrameParallel, firmware.TaskParallel, firmware.TaskParallel)
	}
	if c.RxQueues < 0 {
		return fmt.Errorf("receive queues must be positive, got %d (omit or use 1 for the single-ring build)", c.RxQueues)
	}
	nq := max(c.RxQueues, 1)
	if nq > firmware.MaxRxQueues || nq&(nq-1) != 0 {
		return fmt.Errorf("receive queues must be a power of two ≤ %d, got %d (each queue's status flags must cover every receive buffer slot)", firmware.MaxRxQueues, nq)
	}
	_, err := assist.NewSteering(c.Steering)
	return err
}
