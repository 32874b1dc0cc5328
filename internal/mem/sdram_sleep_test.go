package mem

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/sim"
)

// TestSDRAMSleepsLikeTickedRun runs the SDRAM as a sim.Sleeper and, hidden
// behind a plain TickFunc, ticked on every edge, under the same stream of
// transfers from a CPU-clock requester registered before and after it.
// Completion instants and the bandwidth and utilization counters must
// agree.
func TestSDRAMSleepsLikeTickedRun(t *testing.T) {
	run := func(sleep, requesterFirst bool) (string, uint64) {
		s := NewSDRAM()
		cpu := sim.NewDomain("cpu", 166e6)
		sd := sim.NewDomain("sdram", 500e6)
		e := sim.NewEngine()
		if requesterFirst {
			e.AddDomain(cpu)
			e.AddDomain(sd)
		} else {
			e.AddDomain(sd)
			e.AddDomain(cpu)
		}
		if sleep {
			sd.Add(s)
		} else {
			sd.Add(sim.TickFunc(s.Tick))
		}
		var log strings.Builder
		n := 0
		done := sim.CompleteFunc(func(i uint32) { fmt.Fprintf(&log, "%d@%d ", i, e.Now()) })
		cpu.Add(sim.TickFunc(func(c uint64) {
			// Busy windows with overlapping requests, then idle stretches.
			if c%2000 > 700 || (c%37 != 0 && c%53 != 0) {
				return
			}
			i := n
			n++
			s.Enqueue(i%4, Transfer{
				Addr: uint32(i*1531) % (1 << 20), Len: 42 + (i*397)%1500, Write: i%3 == 0,
				Owner: done, Tag: uint32(i),
			})
		}))
		for _, d := range []sim.Picoseconds{60 * sim.Microsecond, 4001, 2000, 40*sim.Microsecond + 3} {
			e.RunFor(d)
			fmt.Fprintf(&log, "| now=%d cycles=%d busy=%d/%d queued=%d ", e.Now(), sd.Cycles(),
				s.Busy.Busy.Value(), s.Busy.Total.Value(), s.QueueLen(0)+s.QueueLen(1)+s.QueueLen(2)+s.QueueLen(3))
		}
		fmt.Fprintf(&log, "| bytes=%d/%d/%d act=%d",
			s.UsefulBytes.Value(), s.ConsumedBytes.Value(), s.WastedBytes.Value(), s.Activations.Value())
		return log.String(), e.Steps()
	}
	for _, first := range []bool{true, false} {
		slept, sleptSteps := run(true, first)
		ticked, tickedSteps := run(false, first)
		if slept != ticked {
			t.Errorf("requester first=%v: sleeping and ticked SDRAM diverge:\nsleeping: %s\nticked:   %s", first, slept, ticked)
		}
		if sleptSteps >= tickedSteps {
			t.Errorf("requester first=%v: sleeping run took %d steps, ticked %d", first, sleptSteps, tickedSteps)
		}
	}
}

// TestCrossbarAndInstrMemorySleepLikeTickedRun runs the crossbar and the
// instruction memory as sim.Sleepers and, behind plain TickFuncs, ticked on
// every edge, under the same requests from a ticker registered before them,
// as the cores are. Completion instants, grants, per-port wait
// cycles and the port's utilization must agree. With a bank-stall hook the
// crossbar never sleeps, and the hook must see every bank every cycle:
// one installed before the run, and one installed and removed in windows
// mid-run, some opening while the crossbar sleeps idle.
func TestCrossbarAndInstrMemorySleepLikeTickedRun(t *testing.T) {
	const (
		noStall = iota
		stallAlways
		stallWindows
	)
	run := func(sleep bool, stall int) (string, uint64) {
		x := NewCrossbar(4, 3)
		m := NewInstrMemory()
		cpu := sim.NewDomain("cpu", 166e6)
		e := sim.NewEngine()
		var log strings.Builder
		n := 0
		cpu.Add(sim.TickFunc(func(c uint64) {
			// Bursts of requests, then idle stretches.
			if c%900 > 300 {
				return
			}
			for p := 0; p < 4; p++ {
				if x.Busy(p) || (c*7+uint64(p)*3)%11 > 4 {
					continue
				}
				i := n
				n++
				x.Submit(p, i%3, i%2 == 0, func() {
					fmt.Fprintf(&log, "x%d@%d ", i, e.Now())
				})
			}
			if c%37 == 0 || c%53 == 0 {
				i := n
				n++
				m.RequestFill(i%4, func() { fmt.Fprintf(&log, "f%d@%d ", i, e.Now()) })
			}
		}))
		stalls := 0
		hook := func(r int) bool {
			stalls++
			return (stalls*5+r)%13 == 0
		}
		var ev *sim.Domain // the window events, after the CPU domain
		switch stall {
		case stallAlways:
			x.SetBankStall(hook)
		case stallWindows:
			// Windows open in idle stretches (requests come in the first
			// 301 of every 900 cycles) and in bursts, one across both.
			ev = sim.NewEventDomain("faults")
			for _, w := range [][2]sim.Picoseconds{
				{3 * sim.Microsecond, 4 * sim.Microsecond},
				{5 * sim.Microsecond, 7 * sim.Microsecond},
				{12*sim.Microsecond + 1, 12*sim.Microsecond + 500*sim.Nanosecond},
				{25 * sim.Microsecond, 30 * sim.Microsecond},
			} {
				ev.Schedule(w[0], func() { x.SetBankStall(hook) })
				ev.Schedule(w[1], func() { x.SetBankStall(nil) })
			}
		}
		if sleep {
			cpu.Add(x)
			cpu.Add(m)
		} else {
			cpu.Add(sim.TickFunc(x.Tick))
			cpu.Add(sim.TickFunc(m.Tick))
		}
		e.AddDomain(cpu)
		if ev != nil {
			e.AddDomain(ev)
		}
		for _, d := range []sim.Picoseconds{20 * sim.Microsecond, 6023, 1, 6024, 13*sim.Microsecond + 5} {
			e.RunFor(d)
			fmt.Fprintf(&log, "| now=%d imem=%d/%d fills=%d stalls=%d grants=", e.Now(),
				m.PortBusy.Busy.Value(), m.PortBusy.Total.Value(), m.Fills.Value(), stalls)
			for r := range x.Grants {
				fmt.Fprintf(&log, "%d,", x.Grants[r].Value())
			}
			fmt.Fprint(&log, " waits=")
			for p := range x.WaitCycles {
				fmt.Fprintf(&log, "%d,", x.WaitCycles[p].Value())
			}
		}
		return log.String(), cpu.TickerTicks(1) + cpu.TickerTicks(2)
	}
	for _, stall := range []int{noStall, stallAlways, stallWindows} {
		slept, sleptTicks := run(true, stall)
		ticked, tickedTicks := run(false, stall)
		if slept != ticked {
			t.Errorf("stall=%v: sleeping and ticked crossbar and imem diverge:\nsleeping: %s\nticked:   %s", stall, slept, ticked)
		}
		if !strings.Contains(ticked, "x0@") || !strings.Contains(ticked, "f") {
			t.Errorf("stall=%v: no traffic: %s", stall, ticked)
		}
		if sleptTicks >= tickedTicks {
			t.Errorf("stall=%v: sleeping crossbar and imem ticked %d times, ticked %d", stall, sleptTicks, tickedTicks)
		}
	}
}
