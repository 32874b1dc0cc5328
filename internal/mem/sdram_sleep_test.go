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
// Completion instants, bandwidth and utilization counters, and the latency
// histogram (which reads the queuedAt stamps Enqueue takes after waking the
// SDRAM) must all agree.
func TestSDRAMSleepsLikeTickedRun(t *testing.T) {
	run := func(sleep, requesterFirst bool) (string, uint64) {
		s := NewSDRAM(DefaultSDRAMConfig())
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
		cpu.Add(sim.TickFunc(func(c uint64) {
			// Busy windows with overlapping requests, then idle stretches.
			if c%2000 > 700 || (c%37 != 0 && c%53 != 0) {
				return
			}
			i := n
			n++
			s.Enqueue(i%4, Transfer{
				Addr: uint32(i*1531) % (1 << 20), Len: 42 + (i*397)%1500, Write: i%3 == 0,
				OnDone: func() { fmt.Fprintf(&log, "%d@%d ", i, e.Now()) },
			})
		}))
		for _, d := range []sim.Picoseconds{60 * sim.Microsecond, 4001, 2000, 40*sim.Microsecond + 3} {
			e.RunFor(d)
			fmt.Fprintf(&log, "| now=%d cycles=%d busy=%d/%d queued=%d ", e.Now(), sd.Cycles(),
				s.Busy.Busy.Value(), s.Busy.Total.Value(), s.QueueLen(0)+s.QueueLen(1)+s.QueueLen(2)+s.QueueLen(3))
		}
		fmt.Fprintf(&log, "| bytes=%d/%d/%d act=%d lat=%s mean=%v max=%d",
			s.UsefulBytes.Value(), s.ConsumedBytes.Value(), s.WastedBytes.Value(), s.Activations.Value(),
			s.Latency, s.Latency.Mean(), s.Latency.Max())
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
