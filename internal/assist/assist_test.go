package assist

import (
	"testing"

	"repro/internal/ethernet"
	"repro/internal/host"
	"repro/internal/mem"
	"repro/internal/sim"
	"repro/internal/workload"
)

// rig assembles the memory system, host, and all four assists without any
// processors: the datapath integration fixture.
type rig struct {
	eng   *sim.Engine
	sp    *mem.Scratchpad
	xbar  *mem.Crossbar
	sdram *mem.SDRAM
	h     *host.Host
	dmaRd *DMARead
	dmaWr *DMAWrite
	tx    *MACTx
	rx    *MACRx
	// actions are the DMA engines' note actions, by note tag minus one.
	actions []func()
}

// note returns a fresh note tag whose delivery runs f.
func (r *rig) note(f func()) uint32 {
	r.actions = append(r.actions, f)
	return uint32(len(r.actions))
}

func newRig() *rig { return newRigWired(true) }

// newRigWired wires the rig as core.New does when sleep is set: the assists'
// CPU side, the crossbar, the SDRAM and both MAC wires are sim.Sleepers.
// Otherwise they hide behind plain TickFuncs and tick on every edge.
func newRigWired(sleep bool) *rig {
	r := &rig{
		sp:    mem.NewScratchpad(4),
		xbar:  mem.NewCrossbar(4, 4),
		sdram: mem.NewSDRAM(),
		h:     host.New(host.DefaultConfig(), 1),
	}
	r.dmaRd = NewDMARead(NewScratchPort(r.sp, r.xbar, 0, 100), r.sdram, 0, r.h, 0x3_0000)
	r.dmaWr = NewDMAWrite(NewScratchPort(r.sp, r.xbar, 1, 101), r.sdram, 1, r.h, 0x3_0004)
	r.tx = NewMACTx(NewScratchPort(r.sp, r.xbar, 2, 102), r.sdram, 2, 0x3_0008)
	r.rx = NewMACRx(NewScratchPort(r.sp, r.xbar, 3, 103), r.sdram, 3, 0x3_000c)
	owner := sim.CompleteFunc(func(tag uint32) { r.actions[tag-1]() })
	r.dmaRd.SetOwner(owner)
	r.dmaWr.SetOwner(owner)

	cpuD := sim.NewDomain("cpu", 200e6)
	sdramD := sim.NewDomain("sdram", 500e6)
	macD := sim.NewDomain("mac", MACHz)
	hostD := sim.NewDomain("host", 133e6)
	if sleep {
		cpuD.Add(r.dmaRd)
		cpuD.Add(r.dmaWr)
		cpuD.Add(r.tx)
		cpuD.Add(r.rx)
		cpuD.Add(r.xbar)
		sdramD.Add(r.sdram)
		macD.Add(TxWire{M: r.tx})
		macD.Add(RxWire{M: r.rx})
	} else {
		cpuD.Add(sim.TickFunc(r.dmaRd.Tick))
		cpuD.Add(sim.TickFunc(r.dmaWr.Tick))
		cpuD.Add(sim.TickFunc(r.tx.Tick))
		cpuD.Add(sim.TickFunc(r.rx.Tick))
		cpuD.Add(sim.TickFunc(r.xbar.Tick))
		sdramD.Add(sim.TickFunc(r.sdram.Tick))
		macD.Add(sim.TickFunc(r.tx.TickMAC))
		macD.Add(sim.TickFunc(r.rx.TickMAC))
	}
	hostD.Add(r.h)
	r.eng = sim.NewEngine(cpuD, sdramD, macD, hostD)
	return r
}

func TestMACFrequencyIsLineRate(t *testing.T) {
	if got := MACHz * BytesPerMACCycle * 8; got != ethernet.LinkBitsPerSec {
		t.Errorf("MAC datapath rate = %v bits/s, want %v", got, ethernet.LinkBitsPerSec)
	}
}

func TestScratchPortOneAccessPerCycle(t *testing.T) {
	sp := mem.NewScratchpad(4)
	xbar := mem.NewCrossbar(1, 4)
	p := NewScratchPort(sp, xbar, 0, 0)
	done := 0
	p.owner = sim.CompleteFunc(func(uint32) { done++ })
	for i := 0; i < 4; i++ {
		p.Write(uint32(i*4), 1)
	}
	for c := uint64(0); c < 16 && done < 4; c++ {
		p.Tick(c)
		xbar.Tick(c)
	}
	if done != 4 {
		t.Fatalf("completed %d of 4 accesses", done)
	}
	if p.Accesses.Value() != 4 {
		t.Errorf("accesses = %d", p.Accesses.Value())
	}
}

func TestDMAReadFetchBDsWritesDescriptorsAndProgress(t *testing.T) {
	r := newRig()
	gen := workload.NewGenerator(1472, false)
	r.h.Source = &workload.Sender{G: gen}
	// Let the driver post.
	r.eng.RunFor(2 * sim.Microsecond)
	if r.h.PostedSendBDs() == 0 {
		t.Fatal("driver posted no descriptors")
	}
	fetched := false
	r.dmaRd.FetchBDs(128, 0x1000, r.note(func() { fetched = true }))
	r.eng.RunUntil(100*sim.Microsecond, func() bool { return fetched })
	if !fetched {
		t.Fatal("BD fetch never completed")
	}
	if r.dmaRd.Progress.Value() != 1 {
		t.Errorf("progress = %d, want 1", r.dmaRd.Progress.Value())
	}
	if r.dmaRd.BDWords.Value() != 128 {
		t.Errorf("BD words = %d, want 128", r.dmaRd.BDWords.Value())
	}
}

func TestSendPathFrameReachesWireInOrder(t *testing.T) {
	r := newRig()
	gen := workload.NewGenerator(1472, false)
	r.h.Source = &workload.Sender{G: gen}
	sink := &workload.TxSink{}
	r.tx.OnTransmit = sink.Transmit

	r.eng.RunFor(2 * sim.Microsecond)
	const n = 8
	bds := r.h.TakeSendBDs(2 * n)
	if len(bds) != 2*n {
		t.Fatalf("took %d BDs, want %d", len(bds), 2*n)
	}
	addr := uint32(0)
	for i := 0; i < n; i++ {
		f := bds[2*i].Frame
		buf := addr
		addr += uint32(f.Size)
		fr := f
		r.dmaRd.FetchFrame(buf, host.HeaderBytes, f.Size-host.HeaderBytes, r.note(func() {
			r.tx.Send(buf, fr.Size, fr)
		}))
	}
	r.eng.RunUntil(sim.Millisecond, func() bool { return sink.Frames.Value() == n })
	if sink.Frames.Value() != n {
		t.Fatalf("transmitted %d of %d", sink.Frames.Value(), n)
	}
	if sink.OutOfOrder.Value() != 0 {
		t.Errorf("out of order transmissions: %d", sink.OutOfOrder.Value())
	}
	// Misalignment: the 42-byte header split forces wasted SDRAM bytes.
	if r.sdram.WastedBytes.Value() == 0 {
		t.Error("no SDRAM alignment waste despite 42-byte header transfers")
	}
}

func TestMACTxPacesAtLineRate(t *testing.T) {
	r := newRig()
	sink := &workload.TxSink{}
	r.tx.OnTransmit = sink.Transmit
	// Queue 100 max-size frames, all pre-resident in SDRAM.
	addr := uint32(0)
	for i := 0; i < 100; i++ {
		r.tx.Send(addr, ethernet.MaxFrame, &host.Frame{Seq: uint64(i), UDPSize: 1472})
		addr += ethernet.MaxFrame
	}
	// 100 frames at 812,744 fps take 123 µs; allow a little pipeline fill.
	r.eng.RunFor(sim.Picoseconds(126 * sim.Microsecond))
	got := sink.Frames.Value()
	if got < 99 || got > 101 {
		t.Errorf("transmitted %d frames in 126 µs, want ~100 (line-rate pacing)", got)
	}
}

func TestReceivePathDeliversToHostInOrder(t *testing.T) {
	r := newRig()
	gen := workload.NewGenerator(1472, false)
	arr := &workload.Arrivals{G: gen, MaxFrames: 20}
	r.rx.Source = arr
	next := uint32(0x10000)
	r.rx.Alloc = func(size int, handle any) (uint32, bool) {
		a := next
		next += uint32(size)
		return a, true
	}
	delivered := 0
	r.rx.OnReceive = func(buf uint32, size int, handle any, queue int) {
		f := handle.(*host.Frame)
		r.dmaWr.WriteFrame(buf, size, r.note(func() {
			r.h.TakeRecvBDs(queue, 1)
			r.h.DeliverFrame(f, queue)
			delivered++
		}))
	}
	r.eng.RunUntil(sim.Millisecond, func() bool { return delivered == 20 })
	if delivered != 20 {
		t.Fatalf("delivered %d of 20", delivered)
	}
	if r.h.RecvOutOfOrd.Value() != 0 {
		t.Errorf("out of order deliveries: %d", r.h.RecvOutOfOrd.Value())
	}
	if r.rx.Drops.Value() != 0 {
		t.Errorf("drops = %d", r.rx.Drops.Value())
	}
}

func TestMACRxDropsWhenAllocFails(t *testing.T) {
	r := newRig()
	gen := workload.NewGenerator(1472, false)
	r.rx.Source = &workload.Arrivals{G: gen, MaxFrames: 5}
	r.rx.Alloc = func(int, any) (uint32, bool) { return 0, false }
	r.eng.RunFor(20 * sim.Microsecond)
	if r.rx.Drops.Value() != 5 {
		t.Errorf("drops = %d, want 5", r.rx.Drops.Value())
	}
}

func TestFullDuplexSimultaneousStreams(t *testing.T) {
	// Send and receive 30 frames each concurrently; both directions must
	// complete without interference at well under the time either stream
	// needs alone at line rate.
	r := newRig()
	genTx := workload.NewGenerator(1472, false)
	r.h.Source = &workload.Sender{G: genTx}
	sink := &workload.TxSink{}
	r.tx.OnTransmit = sink.Transmit

	genRx := workload.NewGenerator(1472, false)
	r.rx.Source = &workload.Arrivals{G: genRx, MaxFrames: 30}
	nextRx := uint32(0x40000)
	r.rx.Alloc = func(size int, handle any) (uint32, bool) {
		a := nextRx
		nextRx += uint32(size)
		return a, true
	}
	delivered := 0
	r.rx.OnReceive = func(buf uint32, size int, handle any, queue int) {
		f := handle.(*host.Frame)
		r.dmaWr.WriteFrame(buf, size, r.note(func() {
			r.h.TakeRecvBDs(queue, 1)
			r.h.DeliverFrame(f, queue)
			delivered++
		}))
	}

	// Drive the send side as BDs appear.
	sent := 0
	txAddr := uint32(0)
	pump := func(uint64) {
		for sent < 30 && r.h.PostedSendBDs() >= 2 {
			bds := r.h.TakeSendBDs(2)
			f := bds[0].Frame
			buf := txAddr
			txAddr += uint32(f.Size)
			fr := f
			r.dmaRd.FetchFrame(buf, host.HeaderBytes, f.Size-host.HeaderBytes, r.note(func() {
				r.tx.Send(buf, fr.Size, fr)
			}))
			sent++
		}
	}
	// Attach the pump to the host domain.
	hostD := sim.NewDomain("pump", 133e6)
	hostD.Add(sim.TickFunc(pump))
	r.eng.AddDomain(hostD)

	ok := r.eng.RunUntil(2*sim.Millisecond, func() bool {
		return sink.Frames.Value() >= 30 && delivered >= 30
	})
	if !ok {
		t.Fatalf("full duplex incomplete: tx=%d rx=%d", sink.Frames.Value(), delivered)
	}
	if sink.OutOfOrder.Value() != 0 || r.h.RecvOutOfOrd.Value() != 0 {
		t.Error("ordering violated under full duplex")
	}
}
