package cpu

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/mem"
	"repro/internal/trace"
)

// rig wires cores to a scratchpad, crossbar, and instruction memory with the
// production registration order: cores first, then crossbar, then imem.
type rig struct {
	sp    *mem.Scratchpad
	xbar  *mem.Crossbar
	imem  *mem.InstrMemory
	cores []*Core
	cycle uint64
}

func newRig(nCores, banks int) *rig {
	r := &rig{
		sp:   mem.NewScratchpad(banks),
		xbar: mem.NewCrossbar(nCores+4, banks),
		imem: mem.NewInstrMemory(),
	}
	for i := 0; i < nCores; i++ {
		r.cores = append(r.cores, New(i, r.sp, r.xbar, i, mem.NewICache(), r.imem, 4))
	}
	return r
}

func (r *rig) tick() {
	for _, c := range r.cores {
		c.Tick(r.cycle)
	}
	r.xbar.Tick(r.cycle)
	r.imem.Tick(r.cycle)
	r.cycle++
}

func (r *rig) run(n int) {
	for i := 0; i < n; i++ {
		r.tick()
	}
}

// completions is a test stream owner: record k runs the k-th registered
// action.
type completions []func()

// on registers f and returns its record.
func (c *completions) on(f func()) uint32 {
	*c = append(*c, f)
	return uint32(len(*c))
}

// Complete implements sim.Completer.
func (c *completions) Complete(tag uint32) { (*c)[tag-1]() }

// feed installs a one-shot stream on core i; the flag it returns is set when
// the stream's Done is delivered.
func (r *rig) feed(i int, s *Stream) *bool {
	done := new(bool)
	acts, _ := s.Owner.(*completions)
	if acts == nil {
		acts = new(completions)
		s.Owner = acts
	}
	s.Done = acts.on(func() { *done = true })
	delivered := false
	r.cores[i].NextWork = func() *Stream {
		if delivered {
			return nil
		}
		delivered = true
		return s
	}
	return done
}

func alus(n int) []Op {
	ops := make([]Op, n)
	return ops // zero value is OpALU
}

// coldMissPenalty is the stall cycles of one instruction-cache line fill in
// this rig (1 miss cycle + 3 waiting on the 2+2-cycle fill).
const coldMissPenalty = 4

func TestALUStreamRetiresOnePerCycle(t *testing.T) {
	r := newRig(1, 4)
	done := r.feed(0, &Stream{CodeLen: 32, Ops: alus(8), AcctID: 0})
	r.run(20)
	if !*done {
		t.Fatal("stream did not complete")
	}
	st := r.cores[0].Stats
	if st.Instructions != 8 {
		t.Errorf("instructions = %d, want 8", st.Instructions)
	}
	// One cold icache miss for the single 32-byte line, then 1 IPC.
	if st.IMissStalls != coldMissPenalty {
		t.Errorf("imiss stalls = %d, want %d", st.IMissStalls, coldMissPenalty)
	}
	busy := st.Cycles - st.IdleCycles
	if busy != 8+coldMissPenalty {
		t.Errorf("busy cycles = %d, want %d", busy, 8+coldMissPenalty)
	}
}

func TestLoadTakesTwoCycles(t *testing.T) {
	r := newRig(1, 4)
	ops := []Op{{Kind: OpLoad, Addr: 0x100}, {}, {}}
	done := r.feed(0, &Stream{CodeLen: 32, Ops: ops})
	r.run(20)
	if !*done {
		t.Fatal("stream did not complete")
	}
	st := r.cores[0].Stats
	if st.LoadStalls != 1 {
		t.Errorf("load stalls = %d, want 1 (two-cycle scratchpad load)", st.LoadStalls)
	}
	if st.ConflictStalls != 0 {
		t.Errorf("conflict stalls = %d, want 0", st.ConflictStalls)
	}
	// load (2 cycles) + 2 ALU + cold miss.
	busy := st.Cycles - st.IdleCycles
	if busy != 4+coldMissPenalty {
		t.Errorf("busy = %d, want %d", busy, 4+coldMissPenalty)
	}
}

func TestStoreDoesNotStall(t *testing.T) {
	r := newRig(1, 4)
	ops := []Op{{Kind: OpStore, Addr: 0x100}, {}, {}, {}}
	done := r.feed(0, &Stream{CodeLen: 32, Ops: ops})
	r.run(20)
	if !*done {
		t.Fatal("stream did not complete")
	}
	st := r.cores[0].Stats
	busy := st.Cycles - st.IdleCycles
	if busy != 4+coldMissPenalty {
		t.Errorf("busy = %d, want %d (store must be buffered)", busy, 4+coldMissPenalty)
	}
}

func TestStoreThenLoadStructuralConflict(t *testing.T) {
	r := newRig(1, 4)
	ops := []Op{{Kind: OpStore, Addr: 0x100}, {Kind: OpLoad, Addr: 0x200}}
	done := r.feed(0, &Stream{CodeLen: 32, Ops: ops})
	r.run(20)
	if !*done {
		t.Fatal("stream did not complete")
	}
	st := r.cores[0].Stats
	if st.ConflictStalls != 1 {
		t.Errorf("conflict stalls = %d, want 1 (port busy with store)", st.ConflictStalls)
	}
}

func TestHazardCountsPipelineStalls(t *testing.T) {
	r := newRig(1, 4)
	ops := []Op{{Hazard: 2}, {}}
	done := r.feed(0, &Stream{CodeLen: 32, Ops: ops})
	r.run(20)
	if !*done {
		t.Fatal("stream did not complete")
	}
	if st := r.cores[0].Stats; st.PipelineStalls != 2 {
		t.Errorf("pipeline stalls = %d, want 2", st.PipelineStalls)
	}
}

func TestBankConflictBetweenCores(t *testing.T) {
	r := newRig(2, 4)
	// Both cores hammer loads at the same bank.
	mk := func() []Op {
		ops := make([]Op, 32)
		for i := range ops {
			ops[i] = Op{Kind: OpLoad, Addr: 0x100} // bank of 0x100 always
		}
		return ops
	}
	d0 := r.feed(0, &Stream{CodeLen: 32, Ops: mk()})
	d1 := r.feed(1, &Stream{CodeLen: 32, Ops: mk()})
	r.run(300)
	if !*d0 || !*d1 {
		t.Fatal("streams did not complete")
	}
	total := r.cores[0].Stats.ConflictStalls + r.cores[1].Stats.ConflictStalls
	if total == 0 {
		t.Error("no conflict stalls despite same-bank contention")
	}
}

func TestDifferentBanksNoConflict(t *testing.T) {
	r := newRig(2, 4)
	mk := func(addr uint32) []Op {
		ops := make([]Op, 16)
		for i := range ops {
			ops[i] = Op{Kind: OpLoad, Addr: addr}
		}
		return ops
	}
	d0 := r.feed(0, &Stream{CodeLen: 32, Ops: mk(0x100)}) // bank 0
	d1 := r.feed(1, &Stream{CodeLen: 32, Ops: mk(0x104)}) // bank 1
	r.run(200)
	if !*d0 || !*d1 {
		t.Fatal("streams did not complete")
	}
	if c := r.cores[0].Stats.ConflictStalls + r.cores[1].Stats.ConflictStalls; c != 0 {
		t.Errorf("conflict stalls = %d, want 0 across disjoint banks", c)
	}
}

func TestUncontendedLockCost(t *testing.T) {
	r := newRig(1, 4)
	ops := []Op{{Kind: OpLock, Addr: 0x300}, {Kind: OpUnlock, Addr: 0x300}}
	done := r.feed(0, &Stream{CodeLen: 64, Ops: ops})
	r.run(40)
	if !*done {
		t.Fatal("stream did not complete")
	}
	st := r.cores[0].Stats
	// ll, bnez, delay, sc, beqz, nop, then the release store: 7 instructions.
	if st.Instructions != 7 {
		t.Errorf("instructions = %d, want 7 for uncontended acquire+release", st.Instructions)
	}
	if r.sp.Peek32(0x300) != 0 {
		t.Errorf("lock word = %d after release, want 0", r.sp.Peek32(0x300))
	}
}

func TestLockMutualExclusion(t *testing.T) {
	r := newRig(2, 4)
	var order []int
	var holder = -1
	acts := new(completions)
	mk := func(id int) []Op {
		return []Op{
			{Kind: OpLock, Addr: 0x300, Done: acts.on(func() {
				if holder != -1 {
					t.Errorf("core %d acquired while core %d holds", id, holder)
				}
				holder = id
				order = append(order, id)
			})},
			{}, {}, {}, // critical section work
			{Kind: OpUnlock, Addr: 0x300, Done: acts.on(func() { holder = -1 })},
		}
	}
	d0 := r.feed(0, &Stream{CodeLen: 64, Ops: mk(0), Owner: acts})
	d1 := r.feed(1, &Stream{CodeLen: 64, Ops: mk(1), Owner: acts})
	r.run(400)
	if !*d0 || !*d1 {
		t.Fatal("streams did not complete")
	}
	if len(order) != 2 || order[0] == order[1] {
		t.Errorf("acquisition order = %v", order)
	}
	// The loser spun: at least one extra spin load beyond the two winners'.
	spins := r.cores[0].Stats.SpinLoads + r.cores[1].Stats.SpinLoads
	if spins < 3 {
		t.Errorf("spin loads = %d, want >= 3 under contention", spins)
	}
}

func TestLockOnCompleteRunsAtAcquire(t *testing.T) {
	// The Done record of OpLock is delivered when the lock is acquired,
	// before the following ops execute.
	r := newRig(1, 4)
	acquired := false
	acts := new(completions)
	ops := []Op{
		{Kind: OpLock, Addr: 0x300, Done: acts.on(func() { acquired = true })},
		{Done: acts.on(func() {
			if !acquired {
				t.Error("critical section ran before acquire completed")
			}
		})},
		{Kind: OpUnlock, Addr: 0x300},
	}
	done := r.feed(0, &Stream{CodeLen: 64, Ops: ops, Owner: acts})
	r.run(50)
	if !*done {
		t.Fatal("stream did not complete")
	}
}

func TestFuncCycleAttribution(t *testing.T) {
	r := newRig(1, 4)
	done := r.feed(0, &Stream{CodeLen: 32, Ops: alus(10), AcctID: 2})
	r.run(30)
	if !*done {
		t.Fatal("stream did not complete")
	}
	c := r.cores[0]
	busy := c.Stats.Cycles - c.Stats.IdleCycles
	if c.FuncCycles[2] != busy {
		t.Errorf("FuncCycles[2] = %d, want all %d busy cycles", c.FuncCycles[2], busy)
	}
}

func TestRMWIsSingleTransaction(t *testing.T) {
	r := newRig(1, 4)
	fired := false
	acts := new(completions)
	ops := []Op{{Kind: OpRMW, Addr: 0x400, Done: acts.on(func() { fired = true })}, {}}
	done := r.feed(0, &Stream{CodeLen: 32, Ops: ops, Owner: acts})
	r.run(20)
	if !*done || !fired {
		t.Fatal("stream or RMW completion missing")
	}
	st := r.cores[0].Stats
	if st.RMWs != 1 {
		t.Errorf("RMWs = %d, want 1", st.RMWs)
	}
	// RMW behaves like a load in the pipeline: one mandatory stall.
	if st.LoadStalls != 1 {
		t.Errorf("load stalls = %d, want 1", st.LoadStalls)
	}
}

// TestScratchpadCountsPerTransaction pins how many scratchpad accesses each
// completed core transaction records: one for a load, store, RMW, ll,
// unlock or failed sc, and two for a successful sc, whose read and write
// are one crossbar transaction. The lock word is set behind the first ll's
// back, so that sc fails, and cleared again for the retry.
func TestScratchpadCountsPerTransaction(t *testing.T) {
	r := newRig(1, 4)
	c := r.cores[0]
	const lock = 0x300
	var got []string
	var seen uint64
	c.TraceMem = func(trace.MemRef) {
		rd, wr := r.sp.TotalAccesses()
		kind := [...]string{cbLoad: "load", cbRMW: "rmw", cbStore: "store", cbLL: "ll", cbUnlock: "unlock", cbSC: "sc"}[c.xcb]
		switch {
		case c.xcb == cbLL && len(got) == 3:
			r.sp.Poke32(lock, 1)
		case c.xcb == cbSC && c.lockVal == 0:
			kind += "-failed"
			r.sp.Poke32(lock, 0)
		}
		got = append(got, fmt.Sprintf("%s:%d", kind, rd+wr-seen))
		seen = rd + wr
	}
	ops := []Op{
		{Kind: OpLoad, Addr: 0x100},
		{Kind: OpStore, Addr: 0x104},
		{Kind: OpRMW, Addr: 0x108},
		{Kind: OpLock, Addr: lock},
		{Kind: OpUnlock, Addr: lock},
	}
	done := r.feed(0, &Stream{CodeLen: 64, Ops: ops})
	r.run(200)
	if !*done {
		t.Fatal("stream did not complete")
	}
	want := "load:1 store:1 rmw:1 ll:1 sc-failed:1 ll:1 sc:2 unlock:1"
	if s := strings.Join(got, " "); s != want {
		t.Errorf("scratchpad accesses per transaction = %s, want %s", s, want)
	}
}

func TestIdleCoreCountsIdleCycles(t *testing.T) {
	r := newRig(1, 4)
	r.run(10)
	if st := r.cores[0].Stats; st.IdleCycles != 10 {
		t.Errorf("idle cycles = %d, want 10", st.IdleCycles)
	}
}

func TestLargeCodeFootprintMisses(t *testing.T) {
	// A 16 KB handler walked sequentially cannot fit an 8 KB cache, so
	// steady-state misses persist across repetitions.
	r := newRig(1, 4)
	var streams int
	r.cores[0].NextWork = func() *Stream {
		if streams >= 8 {
			return nil
		}
		streams++
		return &Stream{CodeLen: 16384, Ops: alus(4096)}
	}
	r.run(80000)
	st := r.cores[0].Stats
	if st.IMissStalls == 0 {
		t.Error("no instruction miss stalls on an oversized footprint")
	}
	ic := r.cores[0].icache
	ratio := float64(ic.Hits.Value()) / float64(ic.Hits.Value()+ic.Misses.Value())
	if ratio > 0.95 {
		t.Errorf("icache hit ratio = %.3f, want misses for 2x-capacity walk", ratio)
	}
}

func TestStatsAdd(t *testing.T) {
	a := Stats{Cycles: 10, Instructions: 7, LoadStalls: 1}
	a.Add(Stats{Cycles: 5, Instructions: 3, LoadStalls: 2, SpinLoads: 4})
	if a.Cycles != 15 || a.Instructions != 10 || a.LoadStalls != 3 || a.SpinLoads != 4 {
		t.Errorf("Add result = %+v", a)
	}
}

func TestIPC(t *testing.T) {
	s := Stats{Cycles: 100, Instructions: 72}
	if got := s.IPC(); got != 0.72 {
		t.Errorf("IPC = %v, want 0.72", got)
	}
	if (Stats{}).IPC() != 0 {
		t.Error("empty IPC not 0")
	}
}
