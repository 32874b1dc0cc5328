// Package assist models the NIC's four streaming hardware assist units: the
// DMA read and DMA write engines that move data across the host interconnect,
// and the MAC transmit and receive engines that move data on and off the
// Ethernet.
//
// The assists are solely responsible for frame-data transfers (which flow
// through the external SDRAM) but also touch control data: they read and
// update descriptors and progress pointers in the scratchpad, contending with
// the processors through the crossbar. Each assist buffers up to two
// maximum-sized frames so that SDRAM bursts overlap host or wire activity.
package assist

import (
	"repro/internal/fifo"
	"repro/internal/mem"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/trace"
)

// Host abstracts the host interconnect: Delay hands tag back to to after one
// host round-trip (descriptor or data DMA latency). The host model
// implements it.
type Host interface {
	Delay(to sim.Completer, tag uint32)
}

// ScratchPort adapts an assist to its crossbar port: a small FIFO of control
// accesses pumped one at a time. Register Tick in the CPU domain before the
// crossbar.
type ScratchPort struct {
	sp   *mem.Scratchpad
	xbar *mem.Crossbar
	port int
	proc int // trace attribution id

	queue fifo.Queue[spOp]
	busy  bool
	// The crossbar holds at most one access per port, so the completion
	// callback is one pre-bound closure over cur — not an allocation per op.
	cur    spOp
	onDone func()
	owner  sim.Completer // the owning assist: receives completed accesses' tags
	wake   func()        // the owning assist's wake function (sim.Sleeper)

	// TraceMem observes completed accesses for coherence traces.
	TraceMem func(trace.MemRef)
	Accesses stats.Counter
}

// spOp is one queued access; a nonzero tag goes to the port's owner when the
// access completes.
type spOp struct {
	addr  uint32
	write bool
	tag   uint32
}

// NewScratchPort creates a port adapter. proc is the processor id used in
// captured memory traces. The assist built on the port becomes its owner.
func NewScratchPort(sp *mem.Scratchpad, xbar *mem.Crossbar, port, proc int) *ScratchPort {
	p := &ScratchPort{sp: sp, xbar: xbar, port: port, proc: proc}
	p.onDone = p.complete
	return p
}

// complete is the shared crossbar completion callback for the port's single
// outstanding access.
//
//nic:hotpath
func (p *ScratchPort) complete() {
	op := p.cur
	p.cur = spOp{}
	if op.write {
		p.sp.CountWrite(op.addr)
	} else {
		p.sp.CountRead(op.addr)
	}
	p.Accesses.Inc()
	if p.TraceMem != nil {
		p.TraceMem(trace.MemRef{Proc: p.proc, Addr: op.addr, Write: op.write})
	}
	p.busy = false
	if p.queue.Len() > 0 && p.wake != nil {
		p.wake()
	}
	if op.tag != 0 {
		p.owner.Complete(op.tag)
	}
}

// Read enqueues a scratchpad read; a nonzero tag goes to the port's owner at
// completion.
func (p *ScratchPort) Read(addr uint32, tag uint32) {
	p.push(spOp{addr: addr, tag: tag})
}

// Write enqueues a scratchpad write.
func (p *ScratchPort) Write(addr uint32, tag uint32) {
	p.push(spOp{addr: addr, write: true, tag: tag})
}

// push queues op, first waking the owner when the port is free to issue it.
func (p *ScratchPort) push(op spOp) {
	if !p.busy && p.wake != nil {
		p.wake()
	}
	p.queue.Push(op)
}

// idle reports whether the port's next tick would issue nothing: an access
// is outstanding or none is queued. Only Read, Write and a completion end
// that.
func (p *ScratchPort) idle() bool { return p.busy || p.queue.Len() == 0 }

// Tick issues at most one access per CPU cycle.
func (p *ScratchPort) Tick(cycle uint64) {
	if p.busy || p.queue.Len() == 0 {
		return
	}
	op := p.queue.Pop()
	p.busy = true
	p.cur = op
	p.xbar.Submit(p.port, p.sp.Bank(op.addr), op.write, p.onDone)
}

// job is one unit of DMA work: a typed record that its assist runs as a
// chain of phases, each started by the completion of the one before. kind
// selects the chain, addr and n, m are its operands, and a nonzero note is
// the owner's completion tag.
type job struct {
	kind uint8
	addr uint32
	n, m int
	note uint32
}

// phaseTag is the completion tag of a job phase: the job's pipeline slot and
// the phase that finished (nonzero, so every phase tag is nonzero).
func phaseTag(slot int, phase uint32) uint32 { return uint32(slot)<<4 | phase }

// splitTag undoes phaseTag.
func splitTag(tag uint32) (slot int, phase uint32) { return int(tag >> 4), tag & 0xf }

// dmaDepth bounds a DMA engine's overlapped jobs (the paper's two-frame
// buffering).
const dmaDepth = 4

// engine is a common in-order job pipeline with bounded overlap. Started
// jobs sit in pipeline slots, which their phase tags name, until done.
type engine struct {
	queue fifo.Queue[job]
	slots [dmaDepth]job // in-flight jobs
	free  []int         // free slot indices
	// run starts the first phase of the job in a slot (the owning assist's
	// chain dispatch).
	run      func(slot int)
	inFlight int
	// owner receives the notes of completed jobs.
	owner sim.Completer
	// completion ordering: jobs finish the pipeline in start order.
	Completed stats.Counter
	// faultCompletion, when non-nil, is consulted once per completed job
	// that carries a note: drop suppresses the note (a lost completion), dup
	// delivers it twice. The pipeline slot is always released — the fault is
	// in the notification, not the engine.
	faultCompletion func() (drop, dup bool)
	wake            func() // the owning assist's wake function (sim.Sleeper)
	// obs, when non-nil, records the in-flight job count as a counter track
	// whenever it changes. Purely observational.
	obs      *obs.Recorder
	obsTrack int32
}

func newEngine(run func(slot int)) *engine {
	e := &engine{run: run, free: make([]int, dmaDepth)}
	for i := range e.free {
		e.free[i] = dmaDepth - 1 - i
	}
	return e
}

// enqueue adds a job.
func (e *engine) enqueue(j job) {
	if e.wake != nil {
		e.wake()
	}
	e.queue.Push(j)
}

// idle reports whether the engine's next tick would start nothing: every
// pipeline slot is taken or no job is queued. Only enqueue and a job
// completion end that.
func (e *engine) idle() bool { return e.inFlight == dmaDepth || e.queue.Len() == 0 }

// tick starts jobs while pipeline slots are free.
//
//nic:hotpath
func (e *engine) tick() {
	for e.inFlight < dmaDepth && e.queue.Len() > 0 {
		slot := e.free[len(e.free)-1]
		e.free = e.free[:len(e.free)-1]
		e.slots[slot] = e.queue.Pop()
		e.inFlight++
		e.obs.Counter(e.obsTrack, "in-flight", e.inFlight)
		e.run(slot)
	}
}

// done retires the job in slot and hands its note to the owner.
//
//nic:hotpath
func (e *engine) done(slot int) {
	note := e.slots[slot].note
	e.slots[slot] = job{}
	e.free = append(e.free, slot) //nic:alloc bounded by dmaDepth, preallocated
	e.inFlight--
	if e.queue.Len() > 0 && e.wake != nil {
		e.wake()
	}
	e.obs.Counter(e.obsTrack, "in-flight", e.inFlight)
	e.Completed.Inc()
	if note == 0 {
		return
	}
	if e.faultCompletion != nil {
		drop, dup := e.faultCompletion()
		if drop {
			return
		}
		e.owner.Complete(note)
		if dup {
			e.owner.Complete(note)
		}
		return
	}
	e.owner.Complete(note)
}

// sleepUnless is the Sleep result of an assist's CPU side: 0 while its next
// tick would issue or start something, otherwise idle until woken. The CPU
// side's ticks keep no counters, so Skip has nothing to replay.
func sleepUnless(work bool) uint64 {
	if work {
		return 0
	}
	return sim.UntilWoken
}
