package assist

import (
	"repro/internal/mem"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/stats"
)

// DMA job kinds: the phase chains the two DMA engines run.
const (
	jobFetchBDs   = iota // host round trip, descriptor words written, progress
	jobFetchFrame        // host round trip, header then payload burst, progress
	jobWriteFrame        // SDRAM read burst, host round trip, progress
	jobWriteDesc         // descriptor words read, host round trip, progress
)

// DMA job phases, named by what just finished.
const (
	phHost     = iota + 1 // the host round trip
	phWords               // the last descriptor word access
	phHeader              // the header burst
	phBurst               // the payload or frame burst
	phProgress            // the progress-pointer write
)

// dma is what the two DMA engines share: the job pipeline, the scratchpad,
// SDRAM and host ports, and the progress pointer. Register an engine's Tick
// in the CPU clock domain (before the crossbar); SDRAM transfers are
// enqueued to the SDRAM model, which runs in its own domain.
type dma struct {
	Port      *ScratchPort
	sdram     *mem.SDRAM
	sdramPort int
	host      Host
	eng       *engine

	// ProgressAddr is the scratchpad word firmware polls for completions.
	ProgressAddr uint32
	// Progress counts completed jobs (the functional pointer value).
	Progress stats.Counter
	FrameTxs stats.Counter
}

// SetCompletionFault installs the completion-fault hook (see engine); nil
// clears it. A duplicated note reaches the owner twice, so install it only
// together with an owner that absorbs duplicates.
func (d *dma) SetCompletionFault(f func() (drop, dup bool)) { d.eng.faultCompletion = f }

// SetOwner names the receiver of completed jobs' notes.
func (d *dma) SetOwner(owner sim.Completer) { d.eng.owner = owner }

// SetObs routes the engine's in-flight job counter to a trace track.
func (d *dma) SetObs(r *obs.Recorder, track int32) { d.eng.obs, d.eng.obsTrack = r, track }

// publish writes a finished job's progress pointer; the write's completion
// retires the job.
func (d *dma) publish(slot int) { d.Port.Write(d.ProgressAddr, phaseTag(slot, phProgress)) }

// retire counts a published job and frees its pipeline slot.
func (d *dma) retire(slot int) {
	d.Progress.Inc()
	d.eng.done(slot)
}

// Tick starts queued jobs and pumps the scratchpad port.
func (d *dma) Tick(cycle uint64) {
	d.eng.tick()
	d.Port.Tick(cycle)
}

// Sleep implements sim.Sleeper: the engine sleeps until a job or a
// scratchpad access can start.
func (d *dma) Sleep() uint64 { return sleepUnless(!d.eng.idle() || !d.Port.idle()) }

// Skip implements sim.Sleeper; there is nothing to replay.
func (d *dma) Skip(uint64) {}

// SetWake implements sim.Sleeper.
func (d *dma) SetWake(wake func()) { d.eng.wake, d.Port.wake = wake, wake }

// DMARead is the assist that moves data from the host into the NIC: buffer
// descriptor batches into the scratchpad, and frame contents into the SDRAM
// transmit buffer. All job phases have order-preserving latency (fixed host
// delay, FIFO SDRAM port), so jobs complete in issue order and the progress
// counter behaves as the paper's hardware-maintained pointer.
type DMARead struct {
	dma
	BDWords stats.Counter
}

// NewDMARead creates the engine, which overlaps up to dmaDepth jobs.
// SetOwner names the receiver of completed jobs' notes.
func NewDMARead(port *ScratchPort, sdram *mem.SDRAM, sdramPort int, host Host, progressAddr uint32) *DMARead {
	d := &DMARead{dma: dma{Port: port, sdram: sdram, sdramPort: sdramPort, host: host, ProgressAddr: progressAddr}}
	d.eng = newEngine(d.run)
	port.owner = d
	return d
}

// FetchBDs fetches a descriptor batch from host memory into the scratchpad:
// one host round-trip, then words scratchpad writes, then the progress
// pointer update. A nonzero note goes to the owner at completion.
func (d *DMARead) FetchBDs(words int, spBase uint32, note uint32) {
	d.eng.enqueue(job{kind: jobFetchBDs, addr: spBase, n: words, note: note})
}

// FetchFrame fetches one frame's contents from two discontiguous host
// regions (header and payload) into a contiguous SDRAM transmit buffer. The
// payload transfer starts at bufAddr+hdrLen, typically misaligned — the
// bandwidth waste the paper charges to the frame memory.
func (d *DMARead) FetchFrame(bufAddr uint32, hdrLen, payLen int, note uint32) {
	d.eng.enqueue(job{kind: jobFetchFrame, addr: bufAddr, n: hdrLen, m: payLen, note: note})
}

// run starts a job: both chains begin with the host round trip.
//
//nic:hotpath
func (d *DMARead) run(slot int) { d.host.Delay(d, phaseTag(slot, phHost)) }

// Complete implements sim.Completer: it advances the job whose phase
// finished.
//
//nic:hotpath
func (d *DMARead) Complete(tag uint32) {
	slot, ph := splitTag(tag)
	j := &d.eng.slots[slot]
	switch {
	case ph == phHost && j.kind == jobFetchBDs:
		// Descriptor words stream into the scratchpad one per cycle; the
		// last one's completion publishes progress.
		for i := 0; i < j.n; i++ {
			var tag uint32
			if i == j.n-1 {
				tag = phaseTag(slot, phWords)
			}
			d.Port.Write(j.addr+uint32(i)*4, tag)
			d.BDWords.Inc()
		}
		if j.n == 0 {
			d.publish(slot)
		}
	case ph == phHost:
		d.sdram.Enqueue(d.sdramPort, mem.Transfer{Addr: j.addr, Len: j.n, Write: true, Owner: d, Tag: phaseTag(slot, phHeader)})
	case ph == phHeader:
		d.sdram.Enqueue(d.sdramPort, mem.Transfer{Addr: j.addr + uint32(j.n), Len: j.m, Write: true, Owner: d, Tag: phaseTag(slot, phBurst)})
	case ph == phBurst:
		d.FrameTxs.Inc()
		d.publish(slot)
	case ph == phWords:
		d.publish(slot)
	case ph == phProgress:
		d.retire(slot)
	}
}

// DMAWrite is the assist that moves data from the NIC to the host: received
// frame contents from the SDRAM receive buffer into preallocated host
// buffers, and completion descriptors from the scratchpad into the host
// descriptor ring.
type DMAWrite struct {
	dma
	DescWords stats.Counter
}

// NewDMAWrite creates the engine; SetOwner names the receiver of completed
// jobs' notes.
func NewDMAWrite(port *ScratchPort, sdram *mem.SDRAM, sdramPort int, host Host, progressAddr uint32) *DMAWrite {
	w := &DMAWrite{dma: dma{Port: port, sdram: sdram, sdramPort: sdramPort, host: host, ProgressAddr: progressAddr}}
	w.eng = newEngine(w.run)
	port.owner = w
	return w
}

// WriteFrame moves one received frame from the SDRAM receive buffer to the
// host: SDRAM read burst, then the host round-trip.
func (w *DMAWrite) WriteFrame(bufAddr uint32, length int, note uint32) {
	w.eng.enqueue(job{kind: jobWriteFrame, addr: bufAddr, n: length, note: note})
}

// WriteDescriptor DMAs one completion descriptor (descWords scratchpad
// words) to the host descriptor ring.
func (w *DMAWrite) WriteDescriptor(spBase uint32, descWords int, note uint32) {
	w.eng.enqueue(job{kind: jobWriteDesc, addr: spBase, n: descWords, note: note})
}

// run starts a job's first phase.
//
//nic:hotpath
func (w *DMAWrite) run(slot int) {
	j := &w.eng.slots[slot]
	if j.kind == jobWriteFrame {
		w.sdram.Enqueue(w.sdramPort, mem.Transfer{Addr: j.addr, Len: j.n, Owner: w, Tag: phaseTag(slot, phBurst)})
		return
	}
	if j.n == 0 {
		w.host.Delay(w, phaseTag(slot, phHost))
		return
	}
	// The port completes reads in order, so the last one's completion ends
	// the phase.
	for i := 0; i < j.n; i++ {
		var tag uint32
		if i == j.n-1 {
			tag = phaseTag(slot, phWords)
		}
		w.DescWords.Inc()
		w.Port.Read(j.addr+uint32(i)*4, tag)
	}
}

// Complete implements sim.Completer: it advances the job whose phase
// finished.
//
//nic:hotpath
func (w *DMAWrite) Complete(tag uint32) {
	slot, ph := splitTag(tag)
	switch ph {
	case phBurst, phWords:
		w.host.Delay(w, phaseTag(slot, phHost))
	case phHost:
		if w.eng.slots[slot].kind == jobWriteFrame {
			w.FrameTxs.Inc()
		}
		w.publish(slot)
	case phProgress:
		w.retire(slot)
	}
}
