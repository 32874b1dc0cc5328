package firmware

import (
	"testing"

	"repro/internal/assist"
	"repro/internal/cpu"
	"repro/internal/host"
	"repro/internal/mem"
	"repro/internal/sim"
	"repro/internal/workload"
)

// rig is a firmware wired to its memory system, host and assists as
// core.New wires it, with the hardware on a cycle engine but no cores:
// tests and benchmarks drive the firmware's cores themselves.
type rig struct {
	fw     *Firmware
	sp     *mem.Scratchpad
	xbar   *mem.Crossbar
	imem   *mem.InstrMemory
	engine *sim.Engine
}

// newRig assembles the paper's 166 MHz RMW-enhanced controller with nCores
// firmware cores and full-duplex 1472-byte UDP traffic.
func newRig(nCores int) *rig {
	const banks = 4
	sp := mem.NewScratchpad(256*1024, banks)
	xbar := mem.NewCrossbar(nCores+4, banks)
	sdram := mem.NewSDRAM(mem.DefaultSDRAMConfig())
	imem := mem.NewInstrMemory(2, 32)
	hst := host.New(host.DefaultConfig())
	port := func(i int) *assist.ScratchPort { return assist.NewScratchPort(sp, xbar, nCores+i, nCores+i) }
	as := Assists{
		DMARead:  assist.NewDMARead(port(0), sdram, 0, hst, PtrDMARead, 4),
		DMAWrite: assist.NewDMAWrite(port(1), sdram, 1, hst, PtrDMAWrite, 4),
		MACTx:    assist.NewMACTx(port(2), sdram, 2, PtrMACTx),
		MACRx:    assist.NewMACRx(port(3), sdram, 3, PtrMACRx),
	}
	as.MACRx.Queues = 1
	fw := New(DefaultProfile(RMWEnhanced), sp, hst, as, nCores, 512, 512, 0)
	hst.Source = &workload.Sender{G: workload.NewGenerator(1472, false)}
	as.MACRx.Source = &workload.Arrivals{G: workload.NewGenerator(1472, false)}

	cpuD := sim.NewDomain("cpu", 166e6)
	cpuD.Add(as.DMARead)
	cpuD.Add(as.DMAWrite)
	cpuD.Add(as.MACTx)
	cpuD.Add(as.MACRx)
	cpuD.Add(xbar)
	cpuD.Add(imem)
	sdramD := sim.NewDomain("sdram", 500e6)
	sdramD.Add(sdram)
	macD := sim.NewDomain("mac", assist.MACHz)
	macD.Add(assist.TxWire{M: as.MACTx})
	macD.Add(assist.RxWire{M: as.MACRx})
	hostD := sim.NewDomain("host", 133e6)
	hostD.Add(hst)
	return &rig{fw: fw, sp: sp, xbar: xbar, imem: imem, engine: sim.NewEngine(cpuD, sdramD, macD, hostD)}
}

// complete applies a stream's functional effects in op order, as a core
// would over the stream's execution, and lets the hardware advance by one
// cycle per op.
func (r *rig) complete(s *cpu.Stream) {
	for i := range s.Ops {
		if done := s.Ops[i].Done; done != 0 {
			s.Owner.Complete(done)
		}
	}
	if s.Done != 0 {
		s.Owner.Complete(s.Done)
	}
	r.engine.RunFor(sim.Picoseconds(len(s.Ops)) * 6 * sim.Nanosecond)
}

// sameArray reports whether two op slices share a backing array: slices cut
// from one array end at the same element once extended to their capacity.
func sameArray(a, b []cpu.Op) bool {
	return cap(a) > 0 && cap(b) > 0 && &a[:cap(a)][cap(a)-1] == &b[:cap(b)][cap(b)-1]
}

// TestTakeOverKeepsRemainderOps preempts a stream mid-flight on a real core
// and hands the remainder to the firmware. The preempted core's record must
// be dropped without recycling: the remainder shares the evicted stream's
// ops, so no stream handed out while it is outstanding may reuse that array.
func TestTakeOverKeepsRemainderOps(t *testing.T) {
	r := newRig(2)
	c := cpu.New(0, r.sp, r.xbar, 0, mem.NewICache(8192, 2, 32), r.imem, NumAcct)
	c.NextWork = r.fw.NextWorkFor(0)
	// Warm the pool so recycled buffers are what new streams are built on.
	for i := 0; i < 20; i++ {
		r.complete(r.fw.nextWork(1))
	}
	var cycle uint64
	for ; !c.Busy() || c.Stats.Instructions < 3; cycle++ {
		c.Tick(cycle)
		r.xbar.Tick(cycle)
		r.imem.Tick(cycle)
		if cycle > 10000 {
			t.Fatal("core never got a stream")
		}
	}
	orphan, ok := c.Preempt()
	for ; !ok; cycle++ {
		r.xbar.Tick(cycle)
		orphan, ok = c.Preempt()
	}
	if orphan == nil || len(orphan.Ops) == 0 {
		t.Fatal("preemption left no remainder")
	}
	r.fw.TakeOver(0, orphan)

	// The preempted core asks for work again and gets the orphan back; the
	// other core keeps dispatching while the orphan is outstanding.
	if got := r.fw.nextWork(0); got != orphan {
		t.Fatalf("first stream after takeover is %q, want the orphan", got.Name)
	}
	for i := 0; i < 50; i++ {
		s := r.fw.nextWork(1)
		if sameArray(s.Ops, orphan.Ops) {
			t.Fatalf("dispatch %d (%q) reuses the outstanding orphan's ops", i, s.Name)
		}
		r.complete(s)
	}
}

// TestNextWorkRecyclesStreams checks that steady-state dispatch allocates
// neither op buffers nor streams: an idle firmware's poll passes are built
// entirely from recycled memory.
func TestNextWorkRecyclesStreams(t *testing.T) {
	const warm, runs = 10, 100
	r := newRig(1)
	for i := 0; i < warm; i++ {
		r.fw.nextWork(0)
	}
	if n := testing.AllocsPerRun(runs, func() { r.fw.nextWork(0) }); n != 0 {
		t.Errorf("idle dispatch allocates %.1f times per call, want 0", n)
	}
}

// BenchmarkNextWork measures firmware dispatch on one core under saturating
// full-duplex traffic: each iteration hands the core its next stream and
// then completes it (its functional effects, plus the hardware advancing by
// one cycle per op, outside the timer). ns/op and allocs/op are those of
// nextWork alone: claim scan, stream building and recycling.
func BenchmarkNextWork(b *testing.B) {
	const warm = 1000
	r := newRig(1)
	r.engine.RunFor(100 * sim.Microsecond)
	for i := 0; i < warm; i++ {
		r.complete(r.fw.nextWork(0))
	}
	b.ReportAllocs()
	b.ResetTimer()
	useful := 0
	for i := 0; i < b.N; i++ {
		s := r.fw.nextWork(0)
		b.StopTimer()
		if s.AcctID != AcctIdle {
			useful++
		}
		r.complete(s)
		b.StartTimer()
	}
	b.ReportMetric(float64(useful)/float64(b.N), "useful/op")
}
