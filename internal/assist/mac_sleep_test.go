package assist

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/ethernet"
	"repro/internal/sim"
)

// gappySource presents frames of cycling sizes, a runt among them, with idle
// polls between some of them.
type gappySource struct{ polls, frames int }

func (s *gappySource) Next() (int, any, bool) {
	s.polls++
	if s.polls%50 < 20 {
		return 0, nil, false
	}
	sizes := [...]int{ethernet.MinFrame, ethernet.MaxFrame, 300, ethernet.MinFrame - 4, 777}
	s.frames++
	return sizes[s.frames%len(sizes)], s.frames, true
}

// TestWiresSleepLikeTickedRun drives the datapath rig with the assists' CPU
// side, the crossbar, the MAC wires and SDRAM as sim.Sleepers and with them
// ticked on every edge: transmit, receive and DMA completion instants, wire,
// SDRAM and crossbar counters, and the cross-domain reads Backlog and Staged
// (sampled every host-clock cycle) must agree.
func TestWiresSleepLikeTickedRun(t *testing.T) {
	run := func(sleep bool) (string, uint64) {
		r := newRigWired(sleep)
		var log strings.Builder
		r.tx.OnTransmit = func(h any) { fmt.Fprintf(&log, "tx%v@%d ", h, r.eng.Now()) }
		r.rx.Source = &gappySource{}
		next := uint32(0x40000)
		r.rx.Alloc = func(size int, _ any) (uint32, bool) {
			a := next
			next += uint32(size)
			return a, next < 0x80000
		}
		r.rx.OnReceive = func(_ uint32, _ int, h any, _ int) { fmt.Fprintf(&log, "rx%v@%d ", h, r.eng.Now()) }

		// A host-clock pump commits transmit frames in bursts with idle
		// gaps, so the transmit wire both streams and sleeps until woken,
		// starts DMA jobs in both directions, and samples the MAC's
		// cross-domain reads.
		var samples uint64
		pump := sim.NewDomain("pump", 133e6)
		sent, jobs := 0, 0
		pump.Add(sim.TickFunc(func(c uint64) {
			samples = samples*31 + uint64(r.tx.Backlog())*7 + uint64(r.rx.Staged())
			// Bursts of four frames fill the staging buffer, so a fetch
			// waits for the wire to take a staged frame.
			if c%3000 < 1500 && c%200 == 0 {
				for k := 0; k < 1+3*int(c/200%5/4); k++ {
					sizes := [...]int{ethernet.MaxFrame, ethernet.MinFrame, 1000}
					r.tx.Send(uint32(sent*ethernet.MaxFrame)%0x40000, sizes[sent%len(sizes)], sent)
					sent++
				}
			}
			// Every third slot starts twelve jobs at once, six per DMA
			// engine: more than its four pipeline slots, so jobs wait for
			// a completion.
			for k := 0; k < 1+11*int(c/150%3/2) && c%2500 < 900 && c%150 == 0; k++ {
				j := jobs
				jobs++
				done := func(what string) uint32 {
					return r.note(func() { fmt.Fprintf(&log, "%s%d@%d ", what, j, r.eng.Now()) })
				}
				switch j % 4 {
				case 0:
					r.dmaRd.FetchBDs(1+j%16, 0x1000+uint32(j%8)*64, done("bd"))
				case 1:
					r.dmaRd.FetchFrame(0x80000+uint32(j%16)*2048, 42, 300+j%1000, done("rd"))
				case 2:
					r.dmaWr.WriteFrame(0x90000+uint32(j%16)*2048, 64+j%1400, done("wr"))
				default:
					r.dmaWr.WriteDescriptor(0x2000+uint32(j%8)*64, 1+j%4, done("desc"))
				}
			}
		}))
		r.eng.AddDomain(pump)
		for _, d := range []sim.Picoseconds{50 * sim.Microsecond, 2000, 6401, 30*sim.Microsecond + 17} {
			r.eng.RunFor(d)
			fmt.Fprintf(&log, "| now=%d tx=%d/%d wire=%d/%d rxwire=%d/%d rx=%d drops=%d runts=%d sdram=%d/%d samples=%d dma=%d/%d/%d/%d ports=%d/%d/%d/%d ",
				r.eng.Now(), r.tx.TxFrames.Value(), r.tx.TxBytes.Value(),
				r.tx.WireBusy.Busy.Value(), r.tx.WireBusy.Total.Value(),
				r.rx.WireBusy.Busy.Value(), r.rx.WireBusy.Total.Value(),
				r.rx.RxFrames.Value(), r.rx.Drops.Value(), r.rx.RuntDrops.Value(),
				r.sdram.Busy.Busy.Value(), r.sdram.Busy.Total.Value(), samples,
				r.dmaRd.Progress.Value(), r.dmaRd.BDWords.Value(), r.dmaWr.Progress.Value(), r.dmaWr.DescWords.Value(),
				r.dmaRd.Port.Accesses.Value(), r.dmaWr.Port.Accesses.Value(), r.tx.Port.Accesses.Value(), r.rx.Port.Accesses.Value())
			for p := range r.xbar.WaitCycles {
				fmt.Fprintf(&log, "w%d=%d ", p, r.xbar.WaitCycles[p].Value())
			}
		}
		fmt.Fprintf(&log, "| sdram=%d/%d act=%d", r.sdram.UsefulBytes.Value(), r.sdram.ConsumedBytes.Value(), r.sdram.Activations.Value())
		return log.String(), r.eng.Steps()
	}
	slept, sleptSteps := run(true)
	ticked, tickedSteps := run(false)
	if slept != ticked {
		t.Errorf("sleeping and ticked datapath diverge:\nsleeping: %s\nticked:   %s", slept, ticked)
	}
	if !strings.Contains(ticked, "tx0@") || !strings.Contains(ticked, "rx2@") || !strings.Contains(ticked, "desc3@") {
		t.Errorf("no traffic moved: %s", ticked)
	}
	if sleptSteps >= tickedSteps {
		t.Errorf("sleeping run took %d steps, ticked %d", sleptSteps, tickedSteps)
	}
}
