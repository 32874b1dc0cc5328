package faults

import (
	"math/rand"
	"slices"

	"repro/internal/sim"
)

// Verdicts for arriving MAC frames.
const (
	VerdictPass = iota
	VerdictDrop
	VerdictCorrupt
)

// Target is the set of machine controls the injector drives. The core
// package implements it against the assembled NIC; keeping it an interface
// here avoids an import cycle and keeps the injector testable in isolation.
type Target interface {
	// SetStarved stops (true) or resumes (false) the host driver.
	SetStarved(bool)
	// LoseMailboxWrites arms n mailbox doorbell losses.
	LoseMailboxWrites(n int)
	// TryTakeover preempts the core and re-dispatches its orphaned work.
	// False means the core is mid-memory-transaction; retry shortly.
	TryTakeover(core int) bool
	// RecoveryScan runs one firmware timeout/retry pass over outstanding
	// DMA completions.
	RecoveryScan()
	// SabotageLeak / SabotageSwap corrupt firmware pipeline state (invariant
	// checker validation); send selects the direction.
	SabotageLeak(send bool)
	SabotageSwap(send bool)
	// GateCore installs (true) or removes (false) the core's execution gate
	// (GateFor). The injector calls it at every edge of a core's slow and
	// stuck windows, with on while the core is slowed or stuck, so a core
	// pays nothing outside its windows; a call may repeat the current state.
	GateCore(core int, on bool)
	// StallBanks installs (true) or removes (false) the crossbar's bank-stall
	// hook (BankStalled) at every edge of a bank-error window: on while any
	// bank is down.
	StallBanks(on bool)
}

// scanInterval paces the firmware recovery pump; takeoverDetect is the
// modeled stuck-core detection latency, and takeoverRetry the re-attempt
// spacing when a preemption catches a core mid-transaction.
const (
	scanInterval   = 2 * sim.Microsecond
	takeoverDetect = 3 * sim.Microsecond
	takeoverRetry  = 1 * sim.Microsecond
)

// Counters tallies injected faults; all values are totals since Arm.
//
//nic:hashstable 6b01905120f8
type Counters struct {
	RxCorrupt      uint64 `json:"rx_corrupt"`
	RxDrop         uint64 `json:"rx_drop"`
	DMALoss        uint64 `json:"dma_loss"`
	DMADup         uint64 `json:"dma_dup"`
	BankStall      uint64 `json:"bank_stall_cycles"`
	CoreStuck      uint64 `json:"core_stuck"`
	CoreSlow       uint64 `json:"core_slow"`
	RingStarve     uint64 `json:"ring_starve"`
	MailboxLoss    uint64 `json:"mailbox_loss"`
	Sabotage       uint64 `json:"sabotage"`
	TakeoverRetry  uint64 `json:"takeover_retries"`
	TakeoversFired uint64 `json:"takeovers_fired"`
}

// Injector executes a Plan against a machine: it arms per-class state at the
// scheduled instants and answers the per-frame, per-completion, per-cycle
// hook queries the hardware layers make. All decisions are functions of
// (plan, seed) and the machine's own deterministic event order.
type Injector struct {
	plan Plan
	rng  *rand.Rand
	tgt  Target
	dom  *sim.Domain

	// Armed discrete faults, consumed by hook queries. The skip counters
	// space multi-count injections a seeded pseudo-random few events apart.
	rxCorruptLeft, rxCorruptSkip int
	rxDropLeft, rxDropSkip       int
	dmaLossLeft, dmaLossSkip     int
	dmaDupLeft, dmaDupSkip       int

	// Open windows per target. Plan.Validate rejects overlapping windows of
	// one kind on one target, but a window may open at the instant another
	// closes, in either plan order; counting them keeps the target on
	// through that instant.
	bankDown  []int
	stuck     []int
	slowOpen  []int
	slowEvery []uint64
	starving  int

	// Trace, when non-nil, observes each plan event as it fires (by name).
	// The scheduled closures consult it lazily, so it may be bound any time
	// before the engine runs, including after Arm.
	Trace func(name string)

	Counters Counters
}

// note reports one fired plan event to the trace observer, if any.
func (in *Injector) note(name string) {
	if in.Trace != nil {
		in.Trace(name)
	}
}

// NewInjector builds an injector for the plan sized to the machine.
func NewInjector(p Plan, cores, banks int) *Injector {
	return &Injector{
		plan:      p,
		rng:       rand.New(rand.NewSource(p.Seed)),
		bankDown:  make([]int, banks),
		stuck:     make([]int, cores),
		slowOpen:  make([]int, cores),
		slowEvery: make([]uint64, cores),
	}
}

// Plan returns the plan the injector executes.
func (in *Injector) Plan() Plan { return in.plan }

// Arm schedules the plan's events on the event domain and starts the
// firmware recovery pump. Call once, before the engine runs.
func (in *Injector) Arm(dom *sim.Domain, tgt Target) {
	in.dom, in.tgt = dom, tgt
	for _, e := range in.plan.Events {
		e := e
		count := e.Count
		if count == 0 {
			count = 1
		}
		switch e.Kind {
		case RxCorrupt:
			dom.Schedule(e.At, func() { in.rxCorruptLeft += count; in.note("rx_corrupt") })
		case RxDrop:
			dom.Schedule(e.At, func() { in.rxDropLeft += count; in.note("rx_drop") })
		case DMALoss:
			dom.Schedule(e.At, func() { in.dmaLossLeft += count; in.note("dma_loss") })
		case DMADup:
			dom.Schedule(e.At, func() { in.dmaDupLeft += count; in.note("dma_dup") })
		case BankError:
			dom.Schedule(e.At, func() { in.setBank(e.Target, 1); in.note("bank_error") })
			dom.Schedule(e.At+e.Dur, func() { in.setBank(e.Target, -1) })
		case CoreSlow:
			factor := uint64(e.Factor)
			if factor == 0 {
				factor = 2
			}
			dom.Schedule(e.At, func() {
				in.slowOpen[e.Target]++
				in.slowEvery[e.Target] = factor
				in.gate(e.Target)
				in.Counters.CoreSlow++
				in.note("core_slow")
			})
			dom.Schedule(e.At+e.Dur, func() {
				if in.slowOpen[e.Target]--; in.slowOpen[e.Target] == 0 {
					in.slowEvery[e.Target] = 0
				}
				in.gate(e.Target)
			})
		case CoreStuck:
			dom.Schedule(e.At, func() {
				in.stuck[e.Target]++
				in.gate(e.Target)
				in.Counters.CoreStuck++
				in.note("core_stuck")
			})
			in.scheduleTakeover(e.Target, e.At+takeoverDetect, 0)
			if e.Dur != 0 {
				dom.Schedule(e.At+e.Dur, func() { in.stuck[e.Target]--; in.gate(e.Target) })
			}
		case RingStarve:
			dom.Schedule(e.At, func() {
				in.starving++
				tgt.SetStarved(true)
				in.Counters.RingStarve++
				in.note("ring_starve")
			})
			dom.Schedule(e.At+e.Dur, func() { in.starving--; tgt.SetStarved(in.starving > 0) })
		case MailboxLoss:
			dom.Schedule(e.At, func() {
				tgt.LoseMailboxWrites(count)
				in.Counters.MailboxLoss += uint64(count)
				in.note("mailbox_loss")
			})
		case FWLeak:
			dom.Schedule(e.At, func() {
				tgt.SabotageLeak(e.Target == 0)
				in.Counters.Sabotage++
				in.note("fw_leak")
			})
		case FWSwap:
			dom.Schedule(e.At, func() {
				tgt.SabotageSwap(e.Target == 0)
				in.Counters.Sabotage++
				in.note("fw_swap")
			})
		}
	}
	// Recovery pump: periodic firmware timeout/retry scans, themselves an
	// event-domain activity so retry timing is exact and clock-independent.
	var pump func(at sim.Picoseconds) func()
	pump = func(at sim.Picoseconds) func() {
		return func() {
			tgt.RecoveryScan()
			dom.Schedule(at+scanInterval, pump(at+scanInterval))
		}
	}
	dom.Schedule(scanInterval, pump(scanInterval))
}

// gate installs or removes core id's gate as its window state now needs:
// on while the core is stuck or slowed.
func (in *Injector) gate(id int) {
	in.tgt.GateCore(id, in.stuck[id] > 0 || in.slowEvery[id] > 1)
}

// setBank opens (+1) or closes (-1) an error window on bank b, with the
// bank-stall hook installed while any bank is down.
func (in *Injector) setBank(b, delta int) {
	in.bankDown[b] += delta
	in.tgt.StallBanks(slices.ContainsFunc(in.bankDown, func(n int) bool { return n > 0 }))
}

// scheduleTakeover attempts a stuck-core takeover, retrying while the core
// is mid-memory-transaction (attempt k fires at base + k*takeoverRetry).
func (in *Injector) scheduleTakeover(core int, base sim.Picoseconds, attempt int) {
	in.dom.Schedule(base+sim.Picoseconds(attempt)*takeoverRetry, func() {
		if in.tgt.TryTakeover(core) {
			in.Counters.TakeoversFired++
			in.note("takeover")
			return
		}
		in.Counters.TakeoverRetry++
		in.scheduleTakeover(core, base, attempt+1)
	})
}

// RxVerdict decides the fate of one arriving frame: pass, wire drop, or CRC
// corruption. Armed faults hit the next arrival after a seeded skip of 0-3
// frames, so multi-count events spread over the stream.
func (in *Injector) RxVerdict() int {
	if in.rxDropLeft > 0 {
		if in.rxDropSkip > 0 {
			in.rxDropSkip--
		} else {
			in.rxDropLeft--
			in.rxDropSkip = in.rng.Intn(4)
			in.Counters.RxDrop++
			return VerdictDrop
		}
	}
	if in.rxCorruptLeft > 0 {
		if in.rxCorruptSkip > 0 {
			in.rxCorruptSkip--
		} else {
			in.rxCorruptLeft--
			in.rxCorruptSkip = in.rng.Intn(4)
			in.Counters.RxCorrupt++
			return VerdictCorrupt
		}
	}
	return VerdictPass
}

// DMAVerdict decides the fate of one DMA completion notification.
func (in *Injector) DMAVerdict() (drop, dup bool) {
	if in.dmaLossLeft > 0 {
		if in.dmaLossSkip > 0 {
			in.dmaLossSkip--
		} else {
			in.dmaLossLeft--
			in.dmaLossSkip = in.rng.Intn(4)
			in.Counters.DMALoss++
			return true, false
		}
	}
	if in.dmaDupLeft > 0 {
		if in.dmaDupSkip > 0 {
			in.dmaDupSkip--
		} else {
			in.dmaDupLeft--
			in.dmaDupSkip = in.rng.Intn(4)
			in.Counters.DMADup++
			return false, true
		}
	}
	return false, false
}

// BankStalled reports whether the resource (scratchpad bank) is in an error
// window this cycle; stalled grant slots accumulate in Counters.BankStall.
// The target installs it only while some bank is down (Target.StallBanks).
func (in *Injector) BankStalled(resource int) bool {
	if resource < len(in.bankDown) && in.bankDown[resource] > 0 {
		in.Counters.BankStall++
		return true
	}
	return false
}

// GateFor returns the execution gate for one core: false vetoes the cycle
// (stuck, or the off-cycles of a slowed core). The target installs it only
// while the core is stuck or slowed (Target.GateCore).
func (in *Injector) GateFor(id int) func(cycle uint64) bool {
	return func(cycle uint64) bool {
		if in.stuck[id] > 0 {
			return false
		}
		if k := in.slowEvery[id]; k > 1 {
			return cycle%k == 0
		}
		return true
	}
}
