package cpu

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/mem"
	"repro/internal/sim"
)

// sleepRig is one side of a differential pair: cores, the crossbar and the
// instruction memory in one 166 MHz domain, registered in production order.
// With sleep false every ticker hides behind a plain TickFunc, which hides
// sim.Sleeper, so the domain ticks every ticker on every edge.
type sleepRig struct {
	e     *sim.Engine
	d     *sim.Domain
	sp    *mem.Scratchpad
	xbar  *mem.Crossbar
	imem  *mem.InstrMemory
	cores []*Core
	log   strings.Builder
	acts  completions // the streams' owner

	// Per-core work: a seeded generator and the core's preempted
	// remainders, which it picks up before new work.
	rng     []*rand.Rand
	rescued [][]*Stream
	left    []int
	// alias makes every stream short, with code in one or two lines at
	// one of four bases that share their cache sets, so that replacement
	// decisions turn on the order of recent fetches.
	alias bool
}

// Scratchpad words the generated streams use: two contended lock words and
// a data area, disjoint as Op.Addr requires.
const (
	lockA    = 0x300
	lockB    = 0x340
	dataBase = 0x1000
)

// The generated code lies in [0, codeSpan), at bases a multiple of
// setSpan apart, which share the instruction cache's sets.
const (
	codeSpan = 64 << 10
	setSpan  = mem.ICacheBytes / mem.ICacheWays
)

func newSleepRig(sleep bool, cores, gated int, alias bool, seed int64) *sleepRig {
	r := &sleepRig{
		alias: alias,
		e:     sim.NewEngine(),
		d:     sim.NewDomain("cpu", 166e6),
		sp:    mem.NewScratchpad(4),
		xbar:  mem.NewCrossbar(cores, 4),
		imem:  mem.NewInstrMemory(),
	}
	add := func(t sim.Sleeper) {
		if sleep {
			r.d.Add(t)
		} else {
			r.d.Add(sim.TickFunc(t.Tick))
		}
	}
	for i := 0; i < cores; i++ {
		c := New(i, r.sp, r.xbar, i, mem.NewICache(), r.imem, 3)
		r.cores = append(r.cores, c)
		r.rng = append(r.rng, rand.New(rand.NewSource(seed*31+int64(i))))
		r.rescued = append(r.rescued, nil)
		r.left = append(r.left, 40)
		c.NextWork = r.nextWork(i)
		c.OnStreamBegin = func(s *Stream) { r.logf(i, "begin "+s.Name) }
		c.OnStreamEnd = func(s *Stream) { r.logf(i, "end "+s.Name) }
		if i == gated {
			c.SetGate(func(cycle uint64) bool { return cycle%5 != 3 })
		}
		add(c)
	}
	add(r.xbar)
	add(r.imem)
	r.e.AddDomain(r.d)
	return r
}

func (r *sleepRig) logf(core int, what string) {
	fmt.Fprintf(&r.log, "%d c%d %s\n", r.e.Now(), core, what)
}

// nextWork hands core i its rescued remainders first, then fresh streams
// with idle polls between some of them, until its budget runs out.
func (r *sleepRig) nextWork(i int) func() *Stream {
	return func() *Stream {
		if q := r.rescued[i]; len(q) > 0 {
			r.rescued[i] = q[1:]
			return q[0]
		}
		if r.left[i] == 0 || r.rng[i].Intn(4) == 0 {
			return nil
		}
		r.left[i]--
		return r.stream(i, 40-r.left[i])
	}
}

// stream generates one handler: ALU runs with hazards, loads, stores, RMWs,
// lock sections on two contended words, callbacks on a share of the ops,
// and a code region of up to 4 KB at one of sixteen bases setSpan apart,
// some short enough that the PC wraps. Spread over 64 KB, eight times the
// cache, the handlers keep missing.
func (r *sleepRig) stream(core, n int) *Stream {
	rng := r.rng[core]
	name := fmt.Sprintf("s%d.%d", core, n)
	var ops []Op
	push := func(op Op, kind string) {
		if kind != "" && rng.Intn(3) == 0 {
			k := len(ops)
			op.Done = r.acts.on(func() { r.logf(core, fmt.Sprintf("%s %s#%d", kind, name, k)) })
		}
		ops = append(ops, op)
	}
	size := 30 + rng.Intn(150)
	if r.alias {
		size = 3 + rng.Intn(12)
	}
	for len(ops) < size {
		switch x := rng.Intn(20); {
		case x < 10:
			for j := rng.Intn(12); j >= 0; j-- {
				op := Op{}
				if rng.Intn(10) < 3 {
					op.Hazard = uint8(1 + rng.Intn(3))
				}
				kind := ""
				if rng.Intn(8) == 0 {
					kind = "alu"
				}
				push(op, kind)
			}
		case x < 13:
			push(Op{Kind: OpLoad, Addr: dataBase + uint32(rng.Intn(64))*4, Hazard: uint8(rng.Intn(2))}, "load")
		case x < 16:
			push(Op{Kind: OpStore, Addr: dataBase + uint32(rng.Intn(64))*4}, "store")
		case x < 17:
			push(Op{Kind: OpRMW, Addr: dataBase + uint32(rng.Intn(64))*4}, "rmw")
		default:
			lock := uint32(lockA)
			if rng.Intn(2) == 0 {
				lock = lockB
			}
			push(Op{Kind: OpLock, Addr: lock, Hazard: uint8(rng.Intn(2))}, "acquire")
			for j := rng.Intn(6); j >= 0; j-- {
				push(Op{Hazard: uint8(rng.Intn(2))}, "")
			}
			push(Op{Kind: OpStore, Addr: dataBase + uint32(rng.Intn(64))*4}, "store")
			push(Op{Kind: OpUnlock, Addr: lock}, "release")
		}
	}
	acct := rng.Intn(4) - 1 // -1 is unattributed
	// One of sixteen bases; the region ends below codeSpan.
	base := uint32(rng.Intn(codeSpan/setSpan))*setSpan + uint32(rng.Intn(8))*4
	codeLen := uint32(64 + rng.Intn(4000))
	switch {
	case r.alias:
		base, codeLen = uint32(rng.Intn(4))*setSpan, uint32(32+rng.Intn(2)*32) // the same sets
	case rng.Intn(3) == 0:
		codeLen = uint32(36 + rng.Intn(160)) // the PC wraps, often mid-line
	}
	return &Stream{
		Name: name, CodeBase: base, CodeLen: codeLen,
		Ops: ops, AcctID: acct, Owner: &r.acts, Done: r.acts.on(func() { r.logf(core, "done "+name) }),
	}
}

// state renders everything a report could read of the rig.
func (r *sleepRig) state() string {
	var b strings.Builder
	fmt.Fprintf(&b, "now=%d cycles=%d\n", r.e.Now(), r.d.Cycles())
	for _, c := range r.cores {
		fmt.Fprintf(&b, "core %d %+v\n  cycles=%v instr=%v mem=%v lockcy=%v lockin=%v icache=%d/%d\n",
			c.ID, c.Stats, c.FuncCycles, c.FuncInstr, c.FuncMem, c.FuncLockCycles, c.FuncLockInstr,
			c.icache.Hits.Value(), c.icache.Misses.Value())
	}
	fmt.Fprintf(&b, "imem busy=%d/%d fills=%d grants=", r.imem.PortBusy.Busy.Value(),
		r.imem.PortBusy.Total.Value(), r.imem.Fills.Value())
	for i := range r.xbar.Grants {
		fmt.Fprintf(&b, "%d ", r.xbar.Grants[i].Value())
	}
	return b.String()
}

// lruState renders each core's instruction-cache replacement state, which
// the counters do not show: it fills one fresh line into every set, which
// evicts that set's least recently used line, and then lists which lines of
// the code regions are still cached. It changes the caches, so it runs last.
func (r *sleepRig) lruState() string {
	var b strings.Builder
	for _, c := range r.cores {
		for pc := uint32(0); pc < setSpan; pc += mem.ICacheLineBytes {
			c.icache.Fill(1<<20 + pc) // one line per set
		}
		for pc := uint32(0); pc < codeSpan; pc += mem.ICacheLineBytes {
			if c.icache.Probe(pc) {
				fmt.Fprintf(&b, "%d:%x ", c.ID, pc)
			}
		}
	}
	return b.String()
}

// resident reports, per core, which lines of the code span its instruction
// cache holds. Probe changes nothing, and a line leaves the cache only when a
// fill evicts it.
func (r *sleepRig) resident() [][]bool {
	var res [][]bool
	for _, c := range r.cores {
		lines := make([]bool, codeSpan/mem.ICacheLineBytes)
		for i := range lines {
			lines[i] = c.icache.Probe(uint32(i) * mem.ICacheLineBytes)
		}
		res = append(res, lines)
	}
	return res
}

// coreTicks sums the cores' executed ticks.
func (r *sleepRig) coreTicks() uint64 {
	var n uint64
	for i := range r.cores {
		n += r.d.TickerTicks(i)
	}
	return n
}

// preemptAt schedules preemptions of core i at the given instants. The core
// picks its remainder up again on its next poll, so a preempted lock holder
// cannot strand the lock. A refused preemption (a store-conditional in
// flight) retries 1 ns later.
func (r *sleepRig) preemptAt(ev *sim.Domain, i int, at ...sim.Picoseconds) {
	var try func()
	try = func() {
		s, ok := r.cores[i].Preempt()
		if !ok {
			r.logf(i, "preempt refused")
			ev.Schedule(r.e.Now()+sim.Nanosecond, try)
			return
		}
		if s == nil {
			r.logf(i, "preempt idle")
			return
		}
		r.logf(i, "preempt "+s.Name)
		r.rescued[i] = append(r.rescued[i], s)
	}
	for _, t := range at {
		ev.Schedule(t, try)
	}
}

// TestCoresSleepLikeTickedRun is the cores' differential test: the rig with
// sleeping cores, crossbar and instruction memory must log every callback at
// the same instant, and leave the same statistics, attribution and
// instruction-cache counts after every RunFor, as the rig ticked on every
// edge. The deadlines land on and between edges and inside sleeps. Every
// variant must miss in the instruction cache and evict a valid line, seen as
// a line cached after one RunFor and gone after a later one.
func TestCoresSleepLikeTickedRun(t *testing.T) {
	chunks := []sim.Picoseconds{3 * sim.Microsecond, 1, 6023, 6024, 6025, 12000, 50 * sim.Nanosecond,
		777777, 6024 * 7, 2 * sim.Microsecond, 40 * sim.Microsecond, 100 * sim.Microsecond}
	for _, tc := range []struct {
		name    string
		cores   int
		gated   int
		preempt bool
		alias   bool
	}{
		{"ungated", 3, -1, false, false},
		{"gated-core", 3, 1, false, false},
		{"preempted", 3, -1, true, false},
		{"aliasing-code", 3, -1, false, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			for seed := int64(1); seed <= 3; seed++ {
				var rigs [2]*sleepRig
				for k, sleep := range []bool{true, false} {
					r := newSleepRig(sleep, tc.cores, tc.gated, tc.alias, seed)
					if tc.preempt {
						ev := sim.NewEventDomain("faults")
						r.e.AddDomain(ev)
						var at []sim.Picoseconds
						for p := sim.Picoseconds(1); p < 150; p++ {
							at = append(at, p*p*997*sim.Nanosecond/100+p*1373)
						}
						r.preemptAt(ev, 0, at...)
						r.preemptAt(ev, 2, at[7:]...)
					}
					rigs[k] = r
				}
				var held [][]bool
				evicted := 0
				for i, c := range chunks {
					for _, r := range rigs {
						r.e.RunFor(c)
					}
					if s, k := rigs[0].state(), rigs[1].state(); s != k {
						t.Fatalf("seed %d, after RunFor #%d (%d ps):\nsleeping: %s\nticked:   %s", seed, i, c, s, k)
					}
					now := rigs[1].resident()
					for k := range held {
						for l := range held[k] {
							if held[k][l] && !now[k][l] {
								evicted++
							}
						}
					}
					held = now
				}
				var misses uint64
				for _, c := range rigs[1].cores {
					misses += c.icache.Misses.Value()
				}
				if misses == 0 || evicted == 0 {
					t.Errorf("seed %d: %d instruction-cache misses, %d valid lines seen evicted: the rig exercises no replacement", seed, misses, evicted)
				}
				if s, k := rigs[0].lruState(), rigs[1].lruState(); s != k {
					t.Fatalf("seed %d: instruction-cache replacement state differs:\nsleeping: %s\nticked:   %s", seed, s, k)
				}
				slept, ticked := rigs[0].log.String(), rigs[1].log.String()
				if slept != ticked {
					sl, tl := strings.Split(slept, "\n"), strings.Split(ticked, "\n")
					for i := 0; i < len(sl) && i < len(tl); i++ {
						if sl[i] != tl[i] {
							t.Fatalf("seed %d: callback %d differs:\nsleeping: %s\nticked:   %s", seed, i, sl[i], tl[i])
						}
					}
					t.Fatalf("seed %d: callback logs differ in length: %d vs %d", seed, len(sl), len(tl))
				}
				for _, want := range []string{"done ", "acquire ", "load ", "store ", "alu "} {
					if !strings.Contains(ticked, want) {
						t.Errorf("seed %d: no %q callback logged", seed, want)
					}
				}
				if tc.preempt && !strings.Contains(ticked, "preempt s") {
					t.Errorf("seed %d: no stream was preempted", seed)
				}
				t.Logf("seed %d: core ticks %d sleeping, %d ticked", seed, rigs[0].coreTicks(), rigs[1].coreTicks())
				if rigs[0].coreTicks() >= rigs[1].coreTicks() {
					t.Errorf("seed %d: sleeping cores ticked %d times, ticked cores %d", seed, rigs[0].coreTicks(), rigs[1].coreTicks())
				}
			}
		})
	}
}

// TestPreemptReplaysSkippedTicks: a core asleep in a long hazard countdown
// is preempted from an event domain. Preempt must see the countdown as a
// fully ticked run would, and the core must poll for work again from its
// next edge rather than sleep out the rest of the countdown.
func TestPreemptReplaysSkippedTicks(t *testing.T) {
	e := sim.NewEngine()
	d := sim.NewDomain("cpu", 100e6) // 10 ns
	sp := mem.NewScratchpad(1)
	xbar := mem.NewCrossbar(1, 1)
	imem := mem.NewInstrMemory()
	c := New(0, sp, xbar, 0, mem.NewICache(), imem, 1)
	ops := []Op{{Hazard: 200}, {}, {}}
	polls := 0
	c.NextWork = func() *Stream {
		polls++
		if polls == 1 {
			return &Stream{Name: "long", CodeLen: 32, Ops: ops}
		}
		return nil
	}
	d.Add(c)
	d.Add(xbar)
	d.Add(imem)
	e.AddDomain(d)
	ev := sim.NewEventDomain("faults")
	e.AddDomain(ev)
	var rest *Stream
	var stalls uint64
	// Cycle 0 misses, cycles 1-3 wait on the fill, 4 retires the op, and
	// 5.. count the hazard down. The event at 995 ns follows the cpu edge
	// of cycle 98 (cpu is registered first): 94 bubbles have passed.
	ev.Schedule(995*sim.Nanosecond, func() {
		var ok bool
		rest, ok = c.Preempt()
		if !ok {
			t.Error("Preempt refused during a hazard countdown")
		}
		stalls = c.Stats.PipelineStalls
	})
	e.RunFor(2 * sim.Microsecond)
	if stalls != 94 {
		t.Errorf("pipeline stalls seen by Preempt = %d, want 94", stalls)
	}
	if rest == nil || len(rest.Ops) != 2 {
		t.Fatalf("remainder = %+v, want the two ops after the hazard", rest)
	}
	// Polls: the first, then one per edge from cycle 99 to 199.
	if polls != 1+101 {
		t.Errorf("NextWork polls = %d, want %d", polls, 1+101)
	}
	if got := d.TickerTicks(0); got >= 200 {
		t.Errorf("core executed %d ticks, want it asleep through the countdown", got)
	}
}

// TestAcctIDPastBucketsPanics: a stream whose AcctID has no bucket would
// silently drop its Table 5/6 cycles, so picking it up panics. A negative
// AcctID means unattributed.
func TestAcctIDPastBucketsPanics(t *testing.T) {
	r := newRig(1, 4) // 4 buckets
	r.feed(0, &Stream{CodeLen: 32, Ops: alus(4), AcctID: -1})
	r.run(20)
	if st := r.cores[0].Stats; st.Instructions != 4 {
		t.Fatalf("unattributed stream retired %d instructions, want 4", st.Instructions)
	}
	for _, c := range r.cores[0].FuncCycles {
		if c != 0 {
			t.Fatalf("unattributed stream charged cycles: %v", r.cores[0].FuncCycles)
		}
	}

	r = newRig(1, 4)
	r.feed(0, &Stream{Name: "bad", CodeLen: 32, Ops: alus(4), AcctID: 4})
	defer func() {
		if p := recover(); p == nil || !strings.Contains(fmt.Sprint(p), "AcctID 4") {
			t.Errorf("panic = %v, want one naming AcctID 4", p)
		}
	}()
	r.run(1)
}
