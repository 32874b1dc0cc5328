package mem

import (
	"fmt"
	"math/bits"

	"repro/internal/sim"
	"repro/internal/stats"
)

// Crossbar models the 32-bit dancehall interconnect between the processors
// and hardware assists on one side and the scratchpad banks on the other.
// Its resources are the banks: resource i is bank i.
//
// One transaction may be delivered to each bank per cycle, with independent
// round-robin arbitration per bank. An access takes a minimum of two cycles:
// one to request and traverse the crossbar, one to access the memory and
// return data. Requests that lose arbitration wait, accumulating the
// bank-conflict stalls reported in the paper's Table 3.
//
// Arbitration state is kept as per-resource bitmasks of waiting ports, so a
// tick costs a handful of word operations per resource instead of a scan of
// every port for every resource.
//
// Crossbar is a sim.Sleeper; it must be registered in the CPU clock domain
// *after* every requester so that a request submitted during cycle N can be
// granted in cycle N and complete in cycle N+1.
type Crossbar struct {
	resources int
	ports     []xbarPort
	rr        []int32  // per-resource round-robin pointer (last granted port, -1 initially)
	waiting   []uint64 // per-resource bitmask of ports with an ungranted request
	inFlight  []int32  // per-resource granted port + 1; 0 = none
	busy      int      // ports with an outstanding request (waiting or in flight)
	wake      func()   // the clock domain's wake function (sim.Sleeper)
	waitRes   uint64   // bitmask of resources with waiting != 0
	liveRes   uint64   // bitmask of resources with inFlight != 0
	// Grants counts transactions delivered per resource.
	Grants []stats.Counter
	// WaitCycles accumulates arbitration wait per port (conflict stalls).
	WaitCycles []stats.Counter

	bankStall func(resource int) bool // see SetBankStall
}

type xbarPort struct {
	active   bool
	resource int
	write    bool
	onDone   func()
}

// NewCrossbar creates a crossbar with the given number of requester ports and
// scratchpad banks. At most 64 ports and 64 banks are supported (the waiting
// and active sets are single machine words; the controller needs cores+4
// ports and a handful of banks).
func NewCrossbar(ports, banks int) *Crossbar {
	if ports <= 0 || banks <= 0 {
		panic(fmt.Sprintf("mem: bad crossbar geometry: %d ports, %d banks", ports, banks))
	}
	if ports > 64 || banks > 64 {
		panic(fmt.Sprintf("mem: crossbar supports at most 64 ports and 64 banks, got %d/%d", ports, banks))
	}
	x := &Crossbar{
		resources:  banks,
		ports:      make([]xbarPort, ports),
		rr:         make([]int32, banks),
		waiting:    make([]uint64, banks),
		inFlight:   make([]int32, banks),
		Grants:     make([]stats.Counter, banks),
		WaitCycles: make([]stats.Counter, ports),
	}
	for i := range x.rr {
		x.rr[i] = -1
	}
	return x
}

// Busy reports whether the port has a request outstanding (waiting or in the
// access cycle).
func (x *Crossbar) Busy(port int) bool { return x.ports[port].active }

// Submit enqueues a request on the given port for the given resource (bank).
// Each port may have one request outstanding; submitting to a busy port
// panics, since the processor pipeline and assist engines are responsible for
// not over-issuing. onDone is invoked during the tick in which data returns;
// it may be nil.
func (x *Crossbar) Submit(port, resource int, write bool, onDone func()) {
	p := &x.ports[port]
	if p.active {
		panic(fmt.Sprintf("mem: crossbar port %d already busy", port))
	}
	if resource < 0 || resource >= x.resources {
		panic(fmt.Sprintf("mem: crossbar resource %d out of range", resource))
	}
	if x.busy == 0 && x.wake != nil {
		x.wake()
	}
	p.active = true
	p.resource = resource
	p.write = write
	p.onDone = onDone
	x.waiting[resource] |= 1 << uint(port)
	x.waitRes |= 1 << uint(resource)
	x.busy++
}

// Tick completes accesses granted last cycle, then arbitrates new grants,
// one per bank, round-robin across ports. While a bank-stall hook is
// attached it is consulted for every bank every cycle, busy or not, and a
// stalled bank grants nothing.
func (x *Crossbar) Tick(cycle uint64) {
	if x.busy == 0 && x.bankStall == nil {
		return
	}
	// Complete accesses that traversed the crossbar last cycle, in resource
	// order (ascending bit iteration). Completion callbacks may submit a
	// fresh request on the same port, which then competes in this cycle's
	// arbitration.
	lm := x.liveRes
	x.liveRes = 0
	for lm != 0 {
		r := bits.TrailingZeros64(lm)
		lm &^= 1 << uint(r)
		g := x.inFlight[r]
		x.inFlight[r] = 0
		x.busy--
		p := &x.ports[g-1]
		done := p.onDone
		*p = xbarPort{}
		if done != nil {
			done()
		}
	}
	var stalled uint64
	if x.bankStall != nil {
		for r := 0; r < x.resources; r++ {
			if x.bankStall(r) {
				stalled |= 1 << uint(r)
			}
		}
	}
	// Arbitrate: each resource with waiters grants one request unless it is
	// stalled; ports left waiting afterwards lost this cycle and accumulate
	// conflict stalls. All per-resource effects are counter updates, so
	// folding the wait accounting into the arbitration pass changes no
	// observable state.
	wm := x.waitRes
	for wm != 0 {
		r := bits.TrailingZeros64(wm)
		wm &^= 1 << uint(r)
		w := x.waiting[r]
		if stalled&(1<<uint(r)) == 0 {
			// The round-robin winner is the lowest waiting port strictly
			// after the last grant, wrapping to the lowest overall.
			m := w &^ (1<<uint(x.rr[r]+1) - 1)
			if m == 0 {
				m = w
			}
			pi := bits.TrailingZeros64(m)
			x.rr[r] = int32(pi)
			w &^= 1 << uint(pi)
			x.waiting[r] = w
			x.inFlight[r] = int32(pi) + 1
			x.liveRes |= 1 << uint(r)
			x.Grants[r].Inc()
			if w == 0 {
				x.waitRes &^= 1 << uint(r)
				continue
			}
		}
		for w != 0 {
			pj := bits.TrailingZeros64(w)
			w &^= 1 << uint(pj)
			x.WaitCycles[pj].Inc()
		}
	}
}

// SetBankStall installs f as the bank-stall hook, or removes it (nil). While
// installed, f is consulted for every bank every cycle, and a bank for
// which it reports true grants nothing that cycle (transient bank-error
// injection): pending requests keep waiting, accumulating conflict stalls
// exactly like arbitration losses, and grants already in flight still
// complete. Installing wakes the crossbar, which then ticks every cycle;
// once the hook is removed it sleeps again after its next tick that finds
// nothing outstanding.
func (x *Crossbar) SetBankStall(f func(resource int) bool) {
	x.bankStall = f
	if f != nil && x.wake != nil {
		x.wake()
	}
}

// Sleep implements sim.Sleeper: a crossbar with nothing outstanding sleeps
// until Submit wakes it. One with a bank-stall hook never sleeps, because the
// hook is consulted every cycle; fault injection installs the hook only
// while a bank is down (SetBankStall).
func (x *Crossbar) Sleep() uint64 {
	if x.busy == 0 && x.bankStall == nil {
		return sim.UntilWoken
	}
	return 0
}

// Skip implements sim.Sleeper. An idle crossbar's tick does nothing, so
// there is nothing to replay.
func (x *Crossbar) Skip(uint64) {}

// SetWake implements sim.Sleeper.
func (x *Crossbar) SetWake(wake func()) { x.wake = wake }
