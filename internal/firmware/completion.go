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
// (the frame's sequence number modulo FlagBits), a receive queue with a
// ring index, a batch record, a recovery token.
const (
	// Op completions: the functional effect of a stream's op.
	doneFetchSendBD  = iota + 1 // batch: issue the send-BD fetch
	doneSendPrep                // batch: allocate buffers, issue frame fetches
	doneSendComplete            // batch: free buffers, notify the host
	doneFetchRecvBD             // batch: issue the receive-BD fetch
	doneRecvPrep                // batch: issue frame and descriptor writes
	doneRecvComplete            // batch: free receive buffers
	doneSetSend                 // send-ring index: set the status flag
	doneSetRecv                 // queue and ring index: set the status flag
	doneCommitSend              // frame count: software commit scan
	doneCommitRecv              // queue and frame count
	doneUpdateSend              // atomic update commit
	doneUpdateRecv              // queue

	// Stream completions; the operand may carry a release (withRelease).
	doneEndCommitSend // clear the send commit claim
	doneEndCommitRecv // queue: clear its commit claim
	doneEnd           // nothing but the release

	// DMA notes: the engine finished a transfer.
	noteSendBDs   // batch: admit the fetched send descriptors
	noteSendFrame // send-ring index: the frame is in the transmit buffer
	noteRecvBDs   // batch: credit the fetched receive descriptors
	noteRecvDesc  // queue and ring index: the frame is with the host
	noteToken     // recovery token id: deduplicate, then the token's note
)

const (
	argBits = 24
	argMask = 1<<argBits - 1
	// releaseShift places a task-parallel release in a stream completion's
	// operand: the event group plus one, above any queue number.
	releaseShift = 20
	// queueShift places a receive queue above a ring index or frame count
	// (both at most FlagBits).
	queueShift = 13
)

// rec builds a completion record.
func rec(kind, arg uint32) uint32 { return kind<<argBits | arg }

// qarg packs a receive queue with a ring index or count.
func qarg(q int, v uint64) uint32 { return uint32(q)<<queueShift | uint32(v) }

// withRelease adds a task-parallel release of event group g to a stream
// completion record.
func withRelease(done uint32, g evType) uint32 { return done | uint32(g+1)<<releaseShift }

// Complete implements sim.Completer: it dispatches one completion record.
//
//nic:hotpath
func (fw *Firmware) Complete(done uint32) {
	arg := done & argMask
	q := int(arg >> queueShift & (MaxRxQueues - 1))
	low := uint64(arg & (1<<queueShift - 1))
	switch done >> argBits {
	case doneFetchSendBD:
		fw.dma(rec(noteSendBDs, arg))
	case doneSendPrep:
		b := &fw.batches[arg]
		fw.txReserved -= len(b.send)
		fw.claimedSend -= len(b.send)
		for _, fr := range b.send {
			addr, slot, ok := fw.txRing.alloc()
			if !ok {
				panic("firmware: tx ring underflow despite reservation")
			}
			fr.buf, fr.slot = addr, slot
			fw.dmaOutSend++
			fw.dma(rec(noteSendFrame, uint32(fr.idx%FlagBits)))
			fw.Obs.FrameStage(obs.Send, obs.SendDMAStart, fr.idx)
		}
		fw.freeBatch(arg)
	case doneSendComplete:
		b := &fw.batches[arg]
		n := len(b.send)
		for _, fr := range b.send {
			fw.txRing.release(fr.slot)
			fw.Obs.FrameStage(obs.Send, obs.SendNotified, fr.idx)
			fw.sendFree.Put(fr)
		}
		fw.freeBatch(arg)
		fw.hst.CompleteSend(n)
	case doneFetchRecvBD:
		fw.dma(rec(noteRecvBDs, arg))
	case doneRecvPrep:
		b := &fw.batches[arg]
		fw.claimedRecv -= len(b.recv)
		for _, fr := range b.recv {
			fw.dmaOutRecv++
			fw.as.DMAWrite.WriteFrame(fr.buf, fr.size, 0)
			fw.dma(rec(noteRecvDesc, qarg(fr.q, fr.qidx%uint64(fw.rxq[fr.q].flagBits))))
			fw.Obs.FrameStage(obs.Recv, obs.RecvDMAStart, fr.idx)
		}
		fw.freeBatch(arg)
	case doneRecvComplete:
		for _, fr := range fw.batches[arg].recv {
			fw.rxRing.release(fr.slot)
			fw.recvFree.Put(fr)
		}
		fw.freeBatch(arg)
	case doneSetSend:
		fw.sendFlags.Set(int(arg))
		fw.sendSet++
		fw.ordPendSend--
		fw.Obs.FrameStage(obs.Send, obs.SendFlagSet, fw.sendRing[arg].idx)
	case doneSetRecv:
		rq := fw.rxq[q]
		rq.flags.Set(int(low))
		rq.set++
		fw.ordPendRecv--
		fw.Obs.FrameStage(obs.Recv, obs.RecvFlagSet, rq.ring[low].idx)
	case doneCommitSend:
		fw.commit(true, nil, int(arg))
	case doneCommitRecv:
		fw.commit(false, fw.rxq[q], int(low))
	case doneUpdateSend:
		_, k := fw.sendFlags.Update()
		fw.commitCleared(true, nil, k)
	case doneUpdateRecv:
		_, k := fw.rxq[q].flags.Update()
		fw.commitCleared(false, fw.rxq[q], k)
	case doneEndCommitSend, doneEndCommitRecv, doneEnd:
		switch done >> argBits {
		case doneEndCommitSend:
			fw.sendCommitClaim = false
		case doneEndCommitRecv:
			fw.rxq[q].commitClaim = false
		}
		if g := arg >> releaseShift; g != 0 {
			fw.typeBusy[g-1] = false
		}
	case noteSendBDs:
		bds := fw.hst.TakeSendBDs(fw.batches[arg].n)
		for i := 0; i+1 < len(bds); i += 2 {
			fr := fw.sendFree.Get()
			fr.f, fr.idx = bds[i].Frame, fw.sendSeq
			fw.sendSeq++
			fw.sendRing[fr.idx%FlagBits] = fr
			fw.prepQ.Push(fr)
			fw.Obs.FrameStage(obs.Send, obs.SendBDFetched, fr.idx)
		}
		fw.bdFetchOut--
		fw.freeBatch(arg)
	case noteSendFrame:
		fr := fw.sendRing[arg]
		fw.dmaOutSend--
		fw.sendDMADone.Push(fr)
		fw.Obs.FrameStage(obs.Send, obs.SendDMADone, fr.idx)
	case noteRecvBDs:
		b := &fw.batches[arg]
		rq := fw.rxq[b.q]
		rq.bdCredit += fw.hst.TakeRecvBDs(rq.q, b.n)
		rq.bdFetchOut--
		fw.freeBatch(arg)
	case noteRecvDesc:
		rq := fw.rxq[q]
		fr := rq.ring[low]
		fw.dmaOutRecv--
		rq.dmaDone.Push(fr)
		fw.Obs.FrameStage(obs.Recv, obs.RecvDMADone, fr.idx)
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
		fr := fw.sendRing[arg]
		fw.as.DMARead.FetchFrame(fr.buf, host.HeaderBytes, fr.f.Size-host.HeaderBytes, tag)
	case noteRecvDesc:
		fr := fw.rxq[arg>>queueShift].ring[arg&(1<<queueShift-1)]
		fw.as.DMAWrite.WriteDescriptor(RegionRecvDesc+desc(fr.idx, DescDMA), RecvBDWords, tag)
	}
}

// batch is the record of a claimed event whose completion is still to come:
// the frames it took, or a descriptor fetch's queue, size and address. The
// frame slices keep their capacity across uses.
type batch struct {
	q    int
	n    int
	base uint32
	send []*sendFrame
	recv []*recvFrame
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
	clear(b.send)
	clear(b.recv)
	*b = batch{send: b.send[:0], recv: b.recv[:0]}
	fw.freeBatches = append(fw.freeBatches, i) //nic:alloc grows to the peak outstanding
}
