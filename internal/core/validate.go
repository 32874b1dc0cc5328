package core

import (
	"fmt"
	"math"

	"repro/internal/assist"
	"repro/internal/firmware"
)

// Validate reports the first configuration error, if any. New panics on an
// invalid configuration, so user-facing entry points (nicsim, nicbench)
// should Validate first and turn errors into clean exits.
func (c Config) Validate() error {
	if c.Cores <= 0 {
		return fmt.Errorf("cores must be positive, got %d", c.Cores)
	}
	if !(c.CPUMHz > 0) || math.IsInf(c.CPUMHz, 0) {
		return fmt.Errorf("CPU clock must be a positive, finite frequency, got %g MHz", c.CPUMHz)
	}
	if c.ScratchpadBanks <= 0 {
		return fmt.Errorf("scratchpad banks must be positive, got %d", c.ScratchpadBanks)
	}
	if c.ScratchpadBytes <= 0 {
		return fmt.Errorf("scratchpad capacity must be positive, got %d bytes", c.ScratchpadBytes)
	}
	if c.ScratchpadBytes%(4*c.ScratchpadBanks) != 0 {
		return fmt.Errorf("scratchpad capacity %d B not word-interleavable across %d banks", c.ScratchpadBytes, c.ScratchpadBanks)
	}
	if c.ICacheBytes <= 0 || c.ICacheWays <= 0 || c.ICacheLine <= 0 {
		return fmt.Errorf("bad icache geometry: %d bytes, %d ways, %d-byte lines", c.ICacheBytes, c.ICacheWays, c.ICacheLine)
	}
	if !(c.SDRAMMHz > 0) || math.IsInf(c.SDRAMMHz, 0) {
		return fmt.Errorf("SDRAM clock must be a positive, finite frequency, got %g MHz", c.SDRAMMHz)
	}
	if c.Ordering != firmware.SoftwareOnly && c.Ordering != firmware.RMWEnhanced {
		return fmt.Errorf("unknown frame ordering %d (use %d for %s or %d for %s)", c.Ordering,
			firmware.SoftwareOnly, firmware.SoftwareOnly, firmware.RMWEnhanced, firmware.RMWEnhanced)
	}
	if c.Parallelism != firmware.FrameParallel && c.Parallelism != firmware.TaskParallel {
		return fmt.Errorf("unknown firmware parallelism %d (use %d for %s or %d for %s)", c.Parallelism,
			firmware.FrameParallel, firmware.FrameParallel, firmware.TaskParallel, firmware.TaskParallel)
	}
	if c.TxSlots <= 0 || c.RxSlots <= 0 {
		return fmt.Errorf("frame buffer slots must be positive, got tx=%d rx=%d", c.TxSlots, c.RxSlots)
	}
	if c.DMADepth <= 0 {
		return fmt.Errorf("DMA pipeline depth must be positive, got %d", c.DMADepth)
	}
	if c.RxQueues < 0 {
		return fmt.Errorf("receive queues must be positive, got %d (omit or use 1 for the single-ring build)", c.RxQueues)
	}
	nq := max(c.RxQueues, 1)
	if nq > firmware.MaxRxQueues || nq&(nq-1) != 0 {
		return fmt.Errorf("receive queues must be a power of two ≤ %d, got %d (the receive flag region subdivides evenly)", firmware.MaxRxQueues, nq)
	}
	// Every frame in a queue's receive pipeline holds a buffer slot and one
	// of the queue's status flags, and a single flow steers all frames to
	// one queue, so the flags must cover every slot; likewise the send
	// flags every frame the host keeps posted.
	if c.RxSlots > firmware.RecvFlagBits(nq) {
		return fmt.Errorf("%d receive buffer slots exceed the %d status flags of each of %d receive queues (a single flow fills one queue); use at most %d slots or fewer queues",
			c.RxSlots, firmware.RecvFlagBits(nq), nq, firmware.RecvFlagBits(nq))
	}
	if c.Host.SendRing > firmware.FlagBits {
		return fmt.Errorf("send ring of %d frames exceeds the %d send status flags; use at most %d", c.Host.SendRing, firmware.FlagBits, firmware.FlagBits)
	}
	if _, err := assist.NewSteering(c.Steering); err != nil {
		return err
	}
	return c.Host.Validate()
}
