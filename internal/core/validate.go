package core

import (
	"fmt"

	"repro/internal/assist"
	"repro/internal/firmware"
	"repro/internal/mem"
)

// The envelope the model is calibrated for. The frame-parallel firmware's
// reentrancy charge (firmware.Profile's SyncOrder and SyncLock costs, per
// extra active core) is fitted to Figure 7's 1 to 8 cores at 100 to 800 MHz;
// past it a result would extrapolate the fit. The scratchpad holds at most 32
// banks, and words interleave across them by a mask, so their count is a
// power of two.
const (
	maxCores = 8
	minMHz   = 100
	maxMHz   = 800
	maxBanks = 32
)

// Validate reports the first configuration error, if any. New panics on an
// invalid configuration, so user-facing entry points (nicsim, nicbench)
// should Validate first and turn errors into clean exits.
func (c Config) Validate() error {
	if c.Cores <= 0 || c.Cores > maxCores {
		return fmt.Errorf("cores must be 1 to %d, got %d (the reentrancy charge is calibrated on Figure 7's 1–%d cores)", maxCores, c.Cores, maxCores)
	}
	if !(c.CPUMHz >= minMHz && c.CPUMHz <= maxMHz) {
		return fmt.Errorf("CPU clock must be %d to %d MHz, got %g MHz (the reentrancy charge is calibrated on Figure 7's %d–%d MHz)", minMHz, maxMHz, c.CPUMHz, minMHz, maxMHz)
	}
	if c.ScratchpadBanks <= 0 || c.ScratchpadBanks > maxBanks {
		return fmt.Errorf("scratchpad banks must be 1 to %d, got %d", maxBanks, c.ScratchpadBanks)
	}
	if c.ScratchpadBanks&(c.ScratchpadBanks-1) != 0 {
		return fmt.Errorf("scratchpad banks must be a power of two, got %d (words interleave across the banks of the %d KB scratchpad)", c.ScratchpadBanks, mem.ScratchpadBytes/1024)
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
