// Package sim provides a deterministic multi-clock-domain cycle simulation
// engine, the substrate on which the NIC controller model is built.
//
// The engine plays the role of the Liberty Simulation Environment scheduler in
// the paper's Spinach models: modules are registered against a clock Domain
// and are ticked once per cycle of that domain. Simulated time is kept in
// picoseconds so that the four clock domains of the controller (CPU/scratchpad,
// SDRAM, MAC, and host interconnect) interleave deterministically.
//
// # Scheduling
//
// Each step is an allocation-free min-scan: the engine advances to the
// earliest instant any domain needs and processes every domain due there, in
// registration order. Event-driven domains keep their pending callbacks in a
// binary min-heap ordered by (time, schedule order).
//
// # Sleeping tickers
//
// A ticker may implement Sleeper to tell the engine which of its upcoming
// ticks are pure countdown, or that it is idle until woken. The domain skips
// a sleeping ticker while its other tickers step, and is not stepped at all
// while every ticker sleeps. A ticker's skipped bookkeeping is replayed
// (Sleeper.Skip) before its next real tick, on its wake, and when RunFor or
// RunUntil returns, so a sleeping run is indistinguishable from one that
// ticks every edge.
package sim

import (
	"fmt"
	"math"
	"math/bits"
	"sync/atomic"
	"time"
)

// Picoseconds is the unit of simulated time.
type Picoseconds uint64

const (
	// Nanosecond is 1 ns expressed in simulated time units.
	Nanosecond Picoseconds = 1000
	// Microsecond is 1 µs expressed in simulated time units.
	Microsecond Picoseconds = 1000 * 1000
	// Millisecond is 1 ms expressed in simulated time units.
	Millisecond Picoseconds = 1000 * 1000 * 1000
	// Second is 1 s expressed in simulated time units.
	Second Picoseconds = 1000 * 1000 * 1000 * 1000
)

// Seconds converts simulated time to floating-point seconds.
func (p Picoseconds) Seconds() float64 { return float64(p) / float64(Second) }

// A Ticker is a module that does one clock domain cycle of work.
//
// Tick is called exactly once per cycle of the domain the ticker is
// registered with; cycle counts from zero and increments by one.
type Ticker interface {
	Tick(cycle uint64)
}

// TickFunc adapts a function to the Ticker interface.
type TickFunc func(cycle uint64)

// Tick calls f(cycle).
func (f TickFunc) Tick(cycle uint64) { f(cycle) }

// A Completer owns work it hands to another component, which calls Complete
// with the tag the owner attached once that work finishes. A tag is the
// owner's typed completion record, which it dispatches with a switch, so a
// pending completion is a value in a queue rather than a closure on the heap.
type Completer interface {
	Complete(tag uint32)
}

// CompleteFunc adapts a function to the Completer interface.
type CompleteFunc func(tag uint32)

// Complete calls f(tag).
func (f CompleteFunc) Complete(tag uint32) { f(tag) }

// A Sleeper is a Ticker that can spare the engine ticks that would only do
// bookkeeping. The engine asks Sleep right after each of the ticker's real
// ticks and skips the ticker for as many ticks as it allows, while the rest
// of its domain steps; the domain itself sleeps while all its tickers do.
type Sleeper interface {
	Ticker
	// Sleep reports how many of the ticker's next ticks are pure countdown:
	// ticks whose only effect is bookkeeping that Skip replays, whatever
	// other tickers and events do meanwhile. It returns UntilWoken when
	// every tick is such a tick until the ticker calls its wake function,
	// and 0 when the next tick must run.
	Sleep() uint64
	// Skip replays the bookkeeping of n ticks the engine did not run. The
	// replayed ticks never exceed what Sleep allowed, though one sleep may
	// be replayed in several parts.
	Skip(n uint64)
	// SetWake receives the ticker's wake function when it is added to a
	// Domain. Every call replays the bookkeeping skipped up to that
	// instant, so a ticker calls it before stamping anything with its own
	// replayed state, and then asks Sleep again from the first edge a fully
	// ticked run has not yet processed for the ticker. A ticker that reported UntilWoken ticks after as many
	// edges as the new answer allows, or at that edge when it still answers
	// UntilWoken (it calls wake before taking the work it is given). A
	// counting-down ticker only ever ticks earlier than before, so one whose
	// countdown an outside call cuts short (a preempted core) calls wake
	// again once its state has changed.
	SetWake(wake func())
}

// UntilWoken is the Sleep result of a ticker that is idle until it calls its
// wake function.
const UntilWoken = math.MaxUint64

// NoEdge is the next-edge sentinel of a domain with nothing due: an
// event-driven domain with nothing scheduled, or a clocked domain asleep
// until woken. It never wins the engine's min-edge selection, so such a
// domain costs one comparison per step and nothing else.
const NoEdge = Picoseconds(1<<64 - 1)

// A Domain is a clock domain with a fixed frequency, or an event-driven
// domain whose "edges" are explicitly scheduled instants (NewEventDomain).
//
// The period is rounded to an integer number of picoseconds; at 166 MHz the
// resulting frequency error is below 0.003%, far under the modeling noise of
// the study.
type Domain struct {
	name   string
	period Picoseconds
	next   Picoseconds // the instant the engine next processes the domain
	edge   Picoseconds // clocked: earliest edge the domain has not processed
	cycle  uint64      // clocked: the cycle number of edge
	order  int
	ahead  uint64 // clocked: cycles past edge beyond which next saturates at NoEdge

	// The tickers, in registration order, and their sleep state. awake has
	// a bit per slot that ticks at the domain's next edge; a sleeping slot
	// next ticks at needs[i] (UntilWoken while idle).
	// counting has a bit per slot asleep until a need that is a cycle, and
	// soonest is at most the least of those needs (UntilWoken when there is
	// none): a wake that cuts a countdown short may leave it early, which
	// costs one scan that finds nothing due, or, while every ticker sleeps,
	// one edge at which nothing ticks.
	// During the domain's pass, pass holds the slots still due at this edge
	// and pos the slot ticking; after the pass pos is maxTickers.
	slots    []slot
	needs    []uint64 // one per slot, for the scan
	awake    uint64
	pass     uint64
	counting uint64
	soonest  uint64
	pos      int

	eventDriven bool
	events      []schedEvent // binary min-heap ordered by (at, seq)
	seq         uint64
	eng         *Engine
}

// slot is one registered ticker and its sleep state. One that is not a
// Sleeper has a nil s and ticks every edge.
type slot struct {
	t     Ticker
	s     Sleeper
	at    uint64 // the first cycle the ticker has neither ticked nor replayed
	ticks uint64 // real ticks executed
}

// maxTickers is the number of tickers a domain holds: one bit each in the
// domain's masks.
const maxTickers = 64

type schedEvent struct {
	at  Picoseconds
	seq uint64
	f   func()
}

// NewDomain creates a clock domain running at the given frequency in hertz.
// It panics if hz is not positive, since a zero-frequency domain can never
// make progress.
func NewDomain(name string, hz float64) *Domain {
	if hz <= 0 {
		panic(fmt.Sprintf("sim: domain %q: non-positive frequency %v", name, hz))
	}
	period := Picoseconds(float64(Second)/hz + 0.5)
	if period == 0 {
		period = 1
	}
	return &Domain{name: name, period: period, ahead: uint64(1<<62) / uint64(period), soonest: UntilWoken}
}

// NewEventDomain creates an event-driven domain: instead of a fixed clock it
// fires callbacks at explicitly scheduled simulated-time points (Schedule).
// The fault scheduler runs in such a domain so that injected events land at
// exact picosecond instants without perturbing any clocked domain's edges.
func NewEventDomain(name string) *Domain {
	return &Domain{name: name, next: NoEdge, eventDriven: true}
}

// Schedule registers f to run at the given absolute simulated time. Times in
// the past (relative to the owning engine's clock) are clamped to "now", so f
// runs on the engine's next step. Events at the same instant run in schedule
// order. Panics on a clocked domain.
func (d *Domain) Schedule(at Picoseconds, f func()) {
	if !d.eventDriven {
		panic(fmt.Sprintf("sim: domain %q is not event-driven", d.name))
	}
	if d.eng != nil && at < d.eng.now {
		at = d.eng.now
	}
	d.seq++
	d.pushEvent(schedEvent{at: at, seq: d.seq, f: f})
	d.next = d.events[0].at
}

// eventLess orders the heap by time, then schedule order.
func eventLess(a, b *schedEvent) bool {
	return a.at < b.at || (a.at == b.at && a.seq < b.seq)
}

// pushEvent inserts into the min-heap.
//
//nic:hotpath
func (d *Domain) pushEvent(ev schedEvent) {
	d.events = append(d.events, ev) //nic:alloc heap growth amortizes; steady state reuses capacity
	i := len(d.events) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !eventLess(&d.events[i], &d.events[parent]) {
			break
		}
		d.events[i], d.events[parent] = d.events[parent], d.events[i]
		i = parent
	}
}

// popEvent removes and returns the heap minimum.
//
//nic:hotpath
func (d *Domain) popEvent() schedEvent {
	top := d.events[0]
	n := len(d.events) - 1
	d.events[0] = d.events[n]
	d.events[n] = schedEvent{} // release the callback
	d.events = d.events[:n]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		min := i
		if l < n && eventLess(&d.events[l], &d.events[min]) {
			min = l
		}
		if r < n && eventLess(&d.events[r], &d.events[min]) {
			min = r
		}
		if min == i {
			break
		}
		d.events[i], d.events[min] = d.events[min], d.events[i]
		i = min
	}
	return top
}

// runEvents fires every scheduled event due at or before now, in (time,
// schedule-order) order. Callbacks may schedule further events, including at
// the current instant.
//
//nic:hotpath
func (d *Domain) runEvents(now Picoseconds) {
	for len(d.events) > 0 && d.events[0].at <= now {
		ev := d.popEvent()
		ev.f()
	}
	if len(d.events) > 0 {
		d.next = d.events[0].at
	} else {
		d.next = NoEdge
	}
}

// Name returns the domain's name.
func (d *Domain) Name() string { return d.name }

// Period returns the integer-picosecond clock period.
func (d *Domain) Period() Picoseconds { return d.period }

// Cycles returns the number of cycles the domain has executed, counting the
// cycles it slept through up to the last return of RunFor or RunUntil.
func (d *Domain) Cycles() uint64 { return d.cycle }

// Add registers a ticker with the domain; it panics past the 64th. Tickers
// run in registration order within a cycle, which keeps simulations
// deterministic. A Sleeper receives its wake function here. Register tickers
// before the run; one added later first ticks at the domain's next edge.
func (d *Domain) Add(t Ticker) {
	i := len(d.slots)
	if i >= maxTickers {
		panic(fmt.Sprintf("sim: domain %q holds at most %d tickers", d.name, maxTickers))
	}
	s, _ := t.(Sleeper)
	d.slots = append(d.slots, slot{t: t, s: s, at: d.cycle})
	d.needs = append(d.needs, 0)
	d.awake |= 1 << uint(i)
	if s != nil {
		s.SetWake(func() { d.wake(i) })
	}
	if d.eng != nil && !d.eventDriven && d.next > d.edge {
		d.next = d.edge
	}
}

// TickerTicks returns the number of real ticks the i-th registered ticker
// has executed; the cycles it slept through are not counted.
func (d *Domain) TickerTicks(i int) uint64 { return d.slots[i].ticks }

// tick runs one cycle of a clocked domain at d.next: every ticker due then
// is caught up on the cycles it slept through, ticked, and asked how long it
// may sleep. The domain's next edge is the next edge if a ticker stays
// awake, else its sleeping tickers' soonest need.
//
//nic:hotpath
func (d *Domain) tick() {
	c := d.cycle
	if d.next != d.edge {
		c += uint64((d.next - d.edge) / d.period)
		d.edge, d.cycle = d.next, c
	}
	slots := d.slots
	d.pass, d.awake = d.awake, 0
	if d.soonest <= c {
		d.due(c)
	}
	for d.pass != 0 {
		i := bits.TrailingZeros64(d.pass)
		d.pass &^= 1 << uint(i)
		d.pos = i
		sl := &slots[i]
		sl.ticks++
		s := sl.s
		if s == nil {
			sl.t.Tick(c)
			d.awake |= 1 << uint(i)
			continue
		}
		if sl.at < c {
			s.Skip(c - sl.at)
		}
		sl.at = c + 1
		sl.t.Tick(c)
		if k := s.Sleep(); k != 0 {
			n := after(c+1, k)
			d.needs[i] = n
			if k != UntilWoken {
				d.sleep(i, n)
			}
			continue
		}
		d.awake |= 1 << uint(i)
	}
	d.pos = maxTickers
	d.cycle = c + 1
	d.edge += d.period
	if d.awake != 0 {
		d.next = d.edge
		return
	}
	d.next = d.edgeOf(d.soonest)
}

// due moves the counting slots whose need is cycle c into the pass and
// recomputes soonest over the rest.
//
//nic:hotpath
func (d *Domain) due(c uint64) {
	needs, soonest, due := d.needs, uint64(UntilWoken), uint64(0)
	for m := d.counting; m != 0; m &= m - 1 {
		i := bits.TrailingZeros64(m)
		n := needs[i]
		// Without a branch, which would mispredict: all ones when n == c.
		x := n ^ c
		hit := (x|-x)>>63 - 1
		due |= 1 << uint(i) & hit
		soonest = min(soonest, n|hit)
	}
	d.counting &^= due
	d.pass |= due
	d.soonest = soonest
}

// sleep counts slot i down to its need n.
//
//nic:hotpath
func (d *Domain) sleep(i int, n uint64) {
	d.counting |= 1 << uint(i)
	d.soonest = min(d.soonest, n)
}

// after returns cycle c plus k, saturating at UntilWoken.
func after(c, k uint64) uint64 {
	if k >= UntilWoken-c {
		return UntilWoken
	}
	return c + k
}

// edgeOf returns the instant of cycle n, which is at or after d.cycle, or
// NoEdge for UntilWoken and cycles too far ahead to represent.
//
//nic:hotpath
func (d *Domain) edgeOf(n uint64) Picoseconds {
	if k := n - d.cycle; k <= d.ahead {
		return d.edge + Picoseconds(k)*d.period
	}
	return NoEdge
}

// wake is the wake function of the ticker in slot i. It replays the cycles a
// fully ticked run has processed for that ticker by now, up to u, the first
// cycle the ticked run has not processed: the one at now itself only while
// this step's registration-order pass has yet to reach the ticker. It then
// asks Sleep again. An idle ticker ticks at u plus the answer, or at u when
// it still answers UntilWoken (it has just been given work it has not seen);
// a counting-down ticker only ever ticks earlier than it would have.
//
//nic:hotpath
func (d *Domain) wake(i int) {
	e := d.eng
	bit := uint64(1) << uint(i)
	if e == nil || d.awake&bit != 0 {
		return // it ticks at the next edge and has nothing to replay
	}
	sl := &d.slots[i]
	inPass := e.cur == d.order
	u := d.cycle
	switch {
	case !inPass:
		if d.edge <= e.now {
			k := uint64((e.now - d.edge) / d.period)
			u += k
			if d.edge+Picoseconds(k)*d.period < e.now || d.order < e.cur {
				u++
			}
		}
	case i == d.pos:
		return // ticking now: the pass asks Sleep after the tick
	case d.pass&bit != 0:
		// Due later in this pass: only the replay is left to do.
		if sl.at < u {
			sl.s.Skip(u - sl.at)
			sl.at = u
		}
		return
	case i < d.pos:
		u++
	}
	if sl.at < u {
		sl.s.Skip(u - sl.at)
		sl.at = u
	}
	n := u
	if k := sl.s.Sleep(); k != UntilWoken {
		n = after(u, k)
	}
	if need := d.needs[i]; need != UntilWoken {
		if n >= need {
			return
		}
		d.counting &^= bit
	}
	d.needs[i] = n
	switch {
	case inPass && n == d.cycle:
		d.pass |= bit // after the ticking slot: this pass ticks it
	case inPass && n == d.cycle+1:
		d.awake |= bit
	default:
		d.sleep(i, n)
		if !inPass {
			d.next = min(d.next, d.edgeOf(n))
		}
	}
}

// DomainCost is one domain's share of simulation wall time, collected when
// tick profiling is enabled. Ticks counts the domain's executed ticks, each
// one timed interval; cycles a domain slept through are not ticks.
type DomainCost struct {
	Name   string        `json:"name"`
	Ticks  uint64        `json:"ticks"`
	Wall   time.Duration `json:"wall_ns"`
	Events bool          `json:"events,omitempty"`
}

type tickCost struct {
	wall  int64
	ticks uint64
}

// settled is Engine.cur outside a step: every edge at or before now has been
// processed.
const settled = math.MaxInt

// An Engine advances a set of clock domains through simulated time.
type Engine struct {
	domains []*Domain // all domains, registration order
	clocked []*Domain // clocked subset, registration order
	now     Picoseconds
	steps   uint64
	stop    atomic.Bool

	// cur is the registration order of the domain the current step is
	// processing, or settled between steps; a wake uses it to tell whether
	// the woken domain's edge at now is still ahead in this step.
	cur int

	profiling bool
	costs     []tickCost
}

// NewEngine creates an engine over the given domains. Domains may be added
// later with AddDomain, but only before Run is first called.
func NewEngine(domains ...*Domain) *Engine {
	e := &Engine{cur: settled}
	for _, d := range domains {
		e.AddDomain(d)
	}
	return e
}

// AddDomain registers a domain with the engine. Clocked domains get their
// first edge one period from now; event-driven domains keep whatever is
// scheduled (or NoEdge).
func (e *Engine) AddDomain(d *Domain) {
	d.order = len(e.domains)
	d.eng = e
	if !d.eventDriven {
		d.next = e.now + d.period
		d.edge = d.next
		e.clocked = append(e.clocked, d)
	}
	e.domains = append(e.domains, d)
	e.costs = append(e.costs, tickCost{})
}

// SetStaticSchedule is a no-op. It selected the precomputed hyperperiod
// table, which sleeping domains replaced; the engine has one step path.
func (e *Engine) SetStaticSchedule(bool) {}

// ProfileTicks enables (or disables) per-domain tick cost collection,
// retrievable with TickCosts. Profiling adds two clock reads per executed
// domain tick and changes nothing else, but leave it off for recorded
// results.
func (e *Engine) ProfileTicks(on bool) { e.profiling = on }

// TickCosts returns per-domain executed-tick counts and accumulated wall
// time. Wall time is only collected while ProfileTicks is enabled.
func (e *Engine) TickCosts() []DomainCost {
	out := make([]DomainCost, len(e.domains))
	for i, d := range e.domains {
		out[i] = DomainCost{
			Name:   d.name,
			Ticks:  e.costs[i].ticks,
			Wall:   time.Duration(e.costs[i].wall),
			Events: d.eventDriven,
		}
	}
	return out
}

// Steps returns the number of discrete time steps the engine has executed:
// instants at which some domain ticked or fired events. Edges only sleeping
// domains have are not steps.
func (e *Engine) Steps() uint64 { return e.steps }

// Now returns the current simulated time.
func (e *Engine) Now() Picoseconds { return e.now }

// Stop requests that Run and RunFor return after the current time step
// completes. It is safe to call from inside a Tick and from other
// goroutines (a sweep worker's cancellation watchdog stops a simulation
// this way).
func (e *Engine) Stop() { e.stop.Store(true) }

// Stopped reports whether Stop has been called since the last RunFor or
// RunUntil began.
func (e *Engine) Stopped() bool { return e.stop.Load() }

// nextDue returns the earliest instant any domain needs.
//
//nic:hotpath
func (e *Engine) nextDue() Picoseconds {
	next := NoEdge
	for _, d := range e.domains {
		if d.next < next {
			next = d.next
		}
	}
	return next
}

// Step advances simulated time to the next instant any domain needs and
// processes every domain due then, in registration order. It reports
// whether any work was done (false when nothing is due ever again). Sleeping
// domains' bookkeeping is brought up to date when RunFor or RunUntil
// returns, not after a bare Step.
//
//nic:hotpath
func (e *Engine) Step() bool {
	t := e.nextDue()
	if t == NoEdge {
		return false
	}
	e.step(t)
	return true
}

// step processes instant t. Simultaneous edges run in registration order
// because e.domains is in registration order; a domain woken for t by an
// earlier one is picked up when the pass reaches it.
//
//nic:hotpath
func (e *Engine) step(t Picoseconds) {
	e.now = t
	e.steps++
	for _, d := range e.domains {
		if d.next != t {
			continue
		}
		e.cur = d.order
		var t0 time.Time
		if e.profiling {
			t0 = time.Now() //nic:wallclock profiling measures real per-domain cost
		}
		if d.eventDriven {
			d.runEvents(t)
			d.cycle++
		} else {
			d.tick()
		}
		if e.profiling {
			c := &e.costs[d.order]
			c.wall += int64(time.Since(t0)) //nic:wallclock
			c.ticks++
		}
	}
	e.cur = settled
}

// advance runs the next step before deadline or, when nothing is due before
// it, the step a fully ticked run ends on: the first edge of any domain at or
// past the deadline. If only sleeping domains have an edge there, time lands
// on it without a step. It reports false when nothing is due ever again.
//
//nic:hotpath
func (e *Engine) advance(deadline Picoseconds) bool {
	t := e.nextDue()
	if t >= deadline {
		if l := e.landing(deadline); l < t {
			e.now = l
			return true
		}
		if t == NoEdge {
			return false
		}
	}
	e.step(t)
	return true
}

// landing returns the first clocked edge at or past deadline, sleeping
// domains included.
//
//nic:hotpath
func (e *Engine) landing(deadline Picoseconds) Picoseconds {
	l := NoEdge
	for _, d := range e.clocked {
		t := d.edge
		if t < deadline {
			if deadline > NoEdge-d.period {
				continue // the edge is past the end of time
			}
			k := uint64((deadline-t-1)/d.period) + 1
			t += Picoseconds(k) * d.period
		}
		if t < l {
			l = t
		}
	}
	return l
}

// settle replays the bookkeeping of every edge at or before now that a
// sleeping ticker skipped, so state read between runs (reports, snapshots,
// Cycles) matches a fully ticked run.
func (e *Engine) settle() {
	for _, d := range e.clocked {
		if d.edge <= e.now {
			k := uint64((e.now-d.edge)/d.period) + 1
			d.cycle += k
			d.edge += Picoseconds(k) * d.period
		}
		for i := range d.slots {
			if sl := &d.slots[i]; sl.s != nil && sl.at < d.cycle {
				sl.s.Skip(d.cycle - sl.at)
				sl.at = d.cycle
			}
		}
	}
}

// deadlineAfter clamps e.now + dur against Picoseconds overflow: a huge
// duration saturates at the maximum representable instant instead of
// wrapping into the past (which would silently run nothing).
func (e *Engine) deadlineAfter(dur Picoseconds) Picoseconds {
	d := e.now + dur
	if d < e.now {
		return NoEdge
	}
	return d
}

// RunFor advances the simulation by the given amount of simulated time, or
// until Stop is called. It stops on the instant a fully ticked run stops on:
// the first edge at or past the deadline.
func (e *Engine) RunFor(dur Picoseconds) {
	deadline := e.deadlineAfter(dur)
	e.stop.Store(false)
	for !e.stop.Load() && e.now < deadline {
		if !e.advance(deadline) {
			break
		}
	}
	e.settle()
}

// RunUntil advances the simulation until the predicate returns true (checked
// after every time step), Stop is called, or the time limit elapses. It
// reports whether the predicate was satisfied. The predicate runs before
// sleeping domains' bookkeeping is brought up to date, so it should read
// state their real ticks change, not counters Skip replays.
func (e *Engine) RunUntil(limit Picoseconds, done func() bool) bool {
	deadline := e.deadlineAfter(limit)
	e.stop.Store(false)
	for !e.stop.Load() && e.now < deadline {
		if !e.advance(deadline) {
			break
		}
		if done() {
			e.settle()
			return true
		}
	}
	e.settle()
	return done()
}
