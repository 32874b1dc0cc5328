package host

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/sim"
)

// gappySource yields frames but answers nil on every fifth call, so the
// driver's polls must happen on the same ticks for the frames to match.
type gappySource struct{ calls, seq uint64 }

func (s *gappySource) Next() *Frame {
	s.calls++
	if s.calls%5 == 0 {
		return nil
	}
	s.seq++
	return &Frame{Seq: s.seq, UDPSize: 64, Size: 110}
}

// TestHostSleepsLikeTickedRun drives the host from a NIC-side clock and a
// fault event domain and runs it once as a sim.Sleeper and once behind a
// plain TickFunc, which ticks every edge. The NIC side takes send and
// receive descriptors, issues DMA round trips, completes sends and delivers
// frames on a seeded schedule; the events starve the driver and lose
// doorbells. Every completion's instant and the host's state after each of
// several RunFor calls must agree, and the sleeping host must skip ticks.
func TestHostSleepsLikeTickedRun(t *testing.T) {
	run := func(sleep bool) (string, uint64, *Host) {
		h := New(Config{DMALatencyCycles: 40, SendRing: 8, RecvRing: 6, PostBatch: 3}, 2)
		h.Source = &gappySource{}
		nic := sim.NewDomain("nic", 200e6)
		hostD := sim.NewDomain("host", 133e6)
		ev := sim.NewEventDomain("faults")
		e := sim.NewEngine(nic, hostD)
		e.AddDomain(ev)
		var log strings.Builder
		rng := rand.New(rand.NewSource(7))
		sends := 0        // frames whose DMA finished, not yet completed
		var seq [2]uint64 // next delivered sequence number per queue
		taken := [2]int{}
		done := sim.CompleteFunc(func(tag uint32) {
			fmt.Fprintf(&log, "d%d@%d ", tag, e.Now())
			if tag%2 == 0 {
				sends++
			}
		})
		tag := uint32(0)
		nic.Add(sim.TickFunc(func(c uint64) {
			// Each 10 µs: 6 µs of every kind of call, 2 µs of receive only,
			// which fills the send ring, then quiet, in which the host counts
			// down and sleeps idle.
			phase := c % 2000
			if phase >= 1600 || rng.Intn(8) != 0 {
				return
			}
			kind := rng.Intn(4)
			if phase >= 1200 {
				kind = 2
			}
			switch kind {
			case 0:
				for _, bd := range h.TakeSendBDs(1 + rng.Intn(4)) {
					if bd.Last {
						tag += 2
						h.Delay(done, tag)
					}
				}
			case 1:
				if sends > 0 {
					n := 1 + rng.Intn(sends)
					sends -= n
					h.CompleteSend(n)
				}
			case 2:
				q := rng.Intn(2)
				taken[q] += h.TakeRecvBDs(q, 1+rng.Intn(3))
				if taken[q] > 0 && rng.Intn(2) == 0 {
					taken[q]--
					h.DeliverFrame(&Frame{Seq: seq[q], UDPSize: 64, Size: 110}, q)
					seq[q]++
				}
			default:
				tag += 2
				h.Delay(done, tag|1)
			}
		}))
		if sleep {
			hostD.Add(h)
		} else {
			hostD.Add(sim.TickFunc(h.Tick))
		}
		us := func(f float64) sim.Picoseconds { return sim.Picoseconds(f * float64(sim.Microsecond)) }
		for _, w := range [][2]sim.Picoseconds{
			{us(1), us(1.2)}, {us(3), us(8.1)}, {us(11), us(11.3)}, {us(14), us(14) + 7519},
			{us(21), us(21.5)}, {us(30), us(31)}, {us(33), us(33.2)}, {us(35), us(35.4)},
		} {
			ev.Schedule(w[0], func() { h.SetStarved(true) })
			ev.Schedule(w[1], func() { h.SetStarved(false) })
		}
		for _, l := range []struct {
			at sim.Picoseconds
			n  int
		}{{us(5), 3}, {us(26.5), 2}, {us(36), 1}} {
			ev.Schedule(l.at, func() { h.LoseMailboxWrites(l.n) })
		}
		// Probes read what the NIC side would see shortly after each fault.
		for _, at := range []sim.Picoseconds{us(1.2), us(8.1), us(11.3), us(21.5), us(31), us(33.2), us(35.4), us(36)} {
			for _, after := range []sim.Picoseconds{20 * sim.Nanosecond, 60 * sim.Nanosecond} {
				ev.Schedule(at+after, func() {
					fmt.Fprintf(&log, "p%d/%d,%d@%d ", h.PostedSendBDs(), h.PostedRecvBDs(0), h.PostedRecvBDs(1), e.Now())
				})
			}
		}
		for _, d := range []sim.Picoseconds{10 * sim.Microsecond, 7519, 1, 13 * sim.Microsecond, 17*sim.Microsecond + 3} {
			e.RunFor(d)
			fmt.Fprintf(&log, "| now=%d host=%d send=%d recv=%d,%d starved=%d lost=%d doorbells=%d completed=%d delivered=%d ",
				e.Now(), h.now, h.PostedSendBDs(), h.PostedRecvBDs(0), h.PostedRecvBDs(1),
				h.StarvedTicks.Value(), h.MailboxLost.Value(), h.mailboxWrites.Value(),
				h.SendCompleted.Value(), h.RecvDelivered.Value())
		}
		return log.String(), hostD.TickerTicks(0), h
	}
	slept, sleptTicks, _ := run(true)
	ticked, tickedTicks, h := run(false)
	if slept != ticked {
		t.Errorf("sleeping and ticked host diverge:\nsleeping: %s\nticked:   %s", slept, ticked)
	}
	if h.SendCompleted.Value() == 0 || h.RecvDelivered.Value() == 0 || h.StarvedTicks.Value() == 0 || h.MailboxLost.Value() != 6 {
		t.Errorf("the run misses an entry point: %s", ticked)
	}
	if sleptTicks*2 >= tickedTicks {
		t.Errorf("sleeping host ticked %d times, ticked host %d", sleptTicks, tickedTicks)
	}
}

// TestHostRingsAgainAfterLostDoorbellOnFullRing loses the doorbell of the
// posting that fills the send ring: the sleeping host must ring it again on
// its next tick, though it has nothing new to post or replenish.
func TestHostRingsAgainAfterLostDoorbellOnFullRing(t *testing.T) {
	h := New(Config{DMALatencyCycles: 40, SendRing: 2, RecvRing: 4, PostBatch: 4}, 1)
	h.Source = &gappySource{}
	d := sim.NewDomain("host", 133e6)
	d.Add(h)
	e := sim.NewEngine(d)
	h.LoseMailboxWrites(1) // the first tick's send doorbell
	e.RunFor(d.Period())
	if got := h.PostedSendBDs(); got != 0 || h.MailboxLost.Value() != 1 {
		t.Fatalf("after the first tick: %d send BDs visible, %d doorbells lost; want 0 and 1", got, h.MailboxLost.Value())
	}
	e.RunFor(d.Period())
	if got := h.PostedSendBDs(); got != 4 {
		t.Errorf("after the second tick: %d send BDs visible, want 4", got)
	}
}
