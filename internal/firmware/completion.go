package firmware

import (
	"fmt"

	"repro/internal/host"
	"repro/internal/obs"
)

// Completion records. The firmware hands the cores and the DMA engines no
// closures: every pending action is a uint32 record, its kind in the top
// byte and an operand below, which Complete dispatches with a switch. An
// operand names the frame or batch the action applies to: a send-ring index
// (the frame's position modulo FlagBits), an ordering ring (Firmware.rings)
// with a flag position or frame count, a batch record, a recovery token.
const (
	// Op completions: the functional effect of a stream's op.
	doneFetchSendBD  = iota + 1 // batch: issue the send-BD fetch
	doneSendPrep                // batch: allocate buffers, issue frame fetches
	doneSendComplete            // batch: free buffers, notify the host
	doneFetchRecvBD             // batch: issue the receive-BD fetch
	doneRecvPrep                // batch: issue frame and descriptor writes
	doneRecvComplete            // batch: free receive buffers
	doneSet                     // ring and flag position: set the status flag
	doneCommit                  // ring and frame count: software commit scan
	doneUpdate                  // ring: atomic update commit

	// Stream completions; the operand may carry a release (withRelease).
	doneEndCommit // ring: clear its commit claim
	doneEnd       // nothing but the release

	// DMA notes: the engine finished a transfer.
	noteSendBDs   // batch: admit the fetched send descriptors
	noteSendFrame // send-ring index: the frame is in the transmit buffer
	noteRecvBDs   // batch: credit the fetched receive descriptors
	noteRecvDesc  // ring and flag position: the frame is with the host
	noteToken     // recovery token id: deduplicate, then the token's note
)

const (
	argBits = 24
	argMask = 1<<argBits - 1
	// releaseShift places a task-parallel release in a stream completion's
	// operand: the event group plus one, above any ring index.
	releaseShift = 20
	// queueShift places a ring index above a flag position or frame count
	// (both at most FlagBits); ringMask extracts it.
	queueShift = 13
	ringMask   = 1<<(releaseShift-queueShift) - 1
)

// rec builds a completion record.
func rec(kind, arg uint32) uint32 { return kind<<argBits | arg }

// withRelease adds a task-parallel release of event group g to a stream
// completion record.
func withRelease(done uint32, g evType) uint32 { return done | uint32(g+1)<<releaseShift }

// Complete implements sim.Completer: it dispatches one completion record.
//
//nic:hotpath
func (fw *Firmware) Complete(done uint32) {
	arg := done & argMask
	ring := int(arg >> queueShift & ringMask)
	low := uint64(arg & (1<<queueShift - 1))
	switch done >> argBits {
	case doneFetchSendBD:
		fw.dma(rec(noteSendBDs, arg))
	case doneSendPrep:
		b := &fw.batches[arg]
		fw.txReserved -= len(b.frames)
		fw.claimedSend -= len(b.frames)
		for _, fr := range b.frames {
			addr, ok := fw.txRing.alloc()
			if !ok {
				panic("firmware: tx ring underflow despite reservation")
			}
			fr.buf = addr
			fw.dmaOutSend++
			fw.dma(rec(noteSendFrame, uint32(fr.pos%FlagBits)))
			fw.Obs.FrameStage(obs.Send, obs.SendDMAStart, fr.idx, int(fr.entry))
		}
		fw.freeBatch(arg)
	case doneSendComplete:
		b := &fw.batches[arg]
		n := len(b.frames)
		for _, fr := range b.frames {
			fw.txRing.release(fr.buf)
			fw.Obs.FrameStage(obs.Send, obs.SendNotified, fr.idx, int(fr.entry))
			fw.sendFrames.put(fr)
		}
		fw.freeBatch(arg)
		fw.hst.CompleteSend(n)
	case doneFetchRecvBD:
		fw.dma(rec(noteRecvBDs, arg))
	case doneRecvPrep:
		b := &fw.batches[arg]
		r := &fw.rxq[b.q].orderRing
		fw.claimedRecv -= len(b.frames)
		for _, fr := range b.frames {
			fw.dmaOutRecv++
			fw.as.DMAWrite.WriteFrame(fr.buf, int(fr.size), 0)
			fw.dma(rec(noteRecvDesc, r.arg(fr.pos%r.bits)))
			fw.Obs.FrameStage(obs.Recv, obs.RecvDMAStart, fr.idx, int(fr.entry))
		}
		fw.freeBatch(arg)
	case doneRecvComplete:
		for _, fr := range fw.batches[arg].frames {
			fw.rxRing.release(fr.buf)
			fw.recvFrames.put(fr)
		}
		fw.freeBatch(arg)
	case doneSet:
		r := fw.rings[ring]
		r.flags.Set(int(low))
		r.set++
		r.pend--
		if fr := r.at(low); r.q < 0 {
			fw.Obs.FrameStage(obs.Send, obs.SendFlagSet, fr.idx, int(fr.entry))
		} else {
			fw.Obs.FrameStage(obs.Recv, obs.RecvFlagSet, fr.idx, int(fr.entry))
		}
	case doneCommit:
		fw.commit(fw.rings[ring], int(low))
	case doneUpdate:
		r := fw.rings[ring]
		_, k := r.flags.Update()
		fw.commitCleared(r, k)
	case doneEndCommit, doneEnd:
		if done>>argBits == doneEndCommit {
			fw.rings[ring].commitClaim = false
		}
		if g := arg >> releaseShift; g != 0 {
			fw.typeBusy[g-1] = false
		}
	case noteSendBDs:
		bds := fw.hst.TakeSendBDs(fw.batches[arg].n)
		for i := 0; i+1 < len(bds); i += 2 {
			fr := fw.sendFrames.get()
			fr.f = bds[i].Frame
			fw.send.admit(fr)
			fr.idx = fr.pos
			fw.prepQ.Push(fr)
			fw.Obs.FrameStage(obs.Send, obs.SendBDFetched, fr.idx, int(fr.entry))
		}
		fw.bdFetchOut--
		fw.freeBatch(arg)
	case noteSendFrame:
		fr := fw.send.at(uint64(arg))
		fw.dmaOutSend--
		fw.sendDMADone.Push(fr)
		fw.Obs.FrameStage(obs.Send, obs.SendDMADone, fr.idx, int(fr.entry))
	case noteRecvBDs:
		b := &fw.batches[arg]
		rq := fw.rxq[b.q]
		rq.bdCredit += fw.hst.TakeRecvBDs(rq.q, b.n)
		rq.bdFetchOut--
		fw.freeBatch(arg)
	case noteRecvDesc:
		r := fw.rings[ring]
		fr := r.at(low)
		fw.dmaOutRecv--
		fw.rxq[r.q].dmaDone.Push(fr)
		fw.Obs.FrameStage(obs.Recv, obs.RecvDMADone, fr.idx, int(fr.entry))
	case noteToken:
		fw.rec.complete(fw, arg)
	default:
		panic(fmt.Sprintf("firmware: unknown completion record %#x", done)) //nic:alloc cold panic
	}
}

// dma issues the transfer whose completion is note. Unarmed, the engine
// delivers note itself, so the fault machinery costs nothing on fault-free
// runs; armed, it delivers the id of a recovery token holding note.
//
//nic:hotpath
func (fw *Firmware) dma(note uint32) {
	tag := note
	if fw.rec != nil {
		tag = fw.rec.track(note)
	}
	fw.issue(note, tag)
}

// issue hands the engine the transfer whose completion is note, to be
// announced with tag. The note names the transfer: its batch record or its
// frame, which stay put until it completes.
//
//nic:hotpath
func (fw *Firmware) issue(note, tag uint32) {
	arg := note & argMask
	switch note >> argBits {
	case noteSendBDs:
		b := &fw.batches[arg]
		fw.as.DMARead.FetchBDs(b.n*SendBDWords, b.base, tag)
	case noteRecvBDs:
		b := &fw.batches[arg]
		fw.as.DMARead.FetchBDs(b.n*RecvBDWords, b.base, tag)
	case noteSendFrame:
		fr := fw.send.at(uint64(arg))
		fw.as.DMARead.FetchFrame(fr.buf, host.HeaderBytes, fr.f.Size-host.HeaderBytes, tag)
	case noteRecvDesc:
		fr := fw.rings[arg>>queueShift].at(uint64(arg & (1<<queueShift - 1)))
		fw.as.DMAWrite.WriteDescriptor(RegionRecvDesc+desc(fr.idx, DescDMA), RecvBDWords, tag)
	}
}

// batch is the record of a claimed event whose completion is still to come:
// the frames it took (with their receive queue), or a descriptor fetch's
// queue, size and address. The frame slice keeps its capacity across uses.
type batch struct {
	q      int
	n      int
	base   uint32
	frames []*frame
}

// newBatch returns the index of a cleared batch record.
//
//nic:hotpath
func (fw *Firmware) newBatch() uint32 {
	if n := len(fw.freeBatches); n > 0 {
		i := fw.freeBatches[n-1]
		fw.freeBatches = fw.freeBatches[:n-1]
		return i
	}
	fw.batches = append(fw.batches, batch{}) //nic:alloc grows to the peak outstanding
	return uint32(len(fw.batches) - 1)
}

// freeBatch recycles batch record i.
//
//nic:hotpath
func (fw *Firmware) freeBatch(i uint32) {
	b := &fw.batches[i]
	clear(b.frames)
	*b = batch{frames: b.frames[:0]}
	fw.freeBatches = append(fw.freeBatches, i) //nic:alloc grows to the peak outstanding
}
