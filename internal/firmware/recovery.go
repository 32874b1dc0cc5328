package firmware

import (
	"fmt"

	"repro/internal/cpu"
	"repro/internal/fifo"
	"repro/internal/mem"
	"repro/internal/sim"
)

// recoveryTimeout is how long a DMA completion may be outstanding before the
// firmware's recovery scan re-issues the transfer. At line rate a transfer can
// legitimately sit tens of microseconds in the assist queue behind other
// frames, so the timeout must clear worst-case queueing with margin: a
// premature retry duplicates a healthy DMA, and the duplicated traffic deepens
// the very congestion that delayed the original, collapsing throughput. The
// in-flight ordering window is large enough that a genuinely lost completion
// stalls only its own frame chain until the retry fires.
const recoveryTimeout = 100 * sim.Microsecond

// dmaToken tracks one DMA whose completion note the firmware expects. A
// lost note leaves the token pending past the timeout; the recovery scan
// then re-issues the transfer. A duplicated note is absorbed by the token's
// done flag.
type dmaToken struct {
	issued sim.Picoseconds
	done   bool
	tries  int
	note   uint32 // the completion record, which also names the transfer
}

// recovery is the firmware's completion-timeout state, armed only when a
// fault plan is attached to the run.
type recovery struct {
	now func() sim.Picoseconds
	// toks holds the tokens in issue order, from the oldest one still
	// pending; first is its id. A note names its token by id (modulo
	// 2^argBits), so one older than first belongs to a retired, done token.
	toks  fifo.Queue[dmaToken]
	first uint32

	// Retried counts re-issued DMAs, Recovered the retries whose completion
	// eventually arrived, DupSuppressed the duplicate notifications absorbed.
	Retried       uint64
	Recovered     uint64
	DupSuppressed uint64
}

// ArmRecovery enables completion timeout/retry tracking; now reads the
// engine's simulated time. Without this call every DMA note goes straight to
// its action and the firmware behaves exactly as before.
func (fw *Firmware) ArmRecovery(now func() sim.Picoseconds) {
	fw.rec = &recovery{now: now}
}

// RecoveryCounters returns (retried, recovered, duplicates suppressed);
// all zero when recovery is not armed.
func (fw *Firmware) RecoveryCounters() (retried, recovered, dups uint64) {
	if fw.rec == nil {
		return 0, 0, 0
	}
	return fw.rec.Retried, fw.rec.Recovered, fw.rec.DupSuppressed
}

// OutstandingDMAs reports pending (incomplete) recovery tokens.
func (fw *Firmware) OutstandingDMAs() int {
	if fw.rec == nil {
		return 0
	}
	n := 0
	for i := 0; i < fw.rec.toks.Len(); i++ {
		if !fw.rec.toks.Ref(i).done {
			n++
		}
	}
	return n
}

// track starts a token for the DMA whose completion is note and returns the
// record the engine delivers instead, the token's: it runs note at most
// once, and the recovery scan re-issues the transfer if no completion
// arrives within the timeout.
func (r *recovery) track(note uint32) uint32 {
	id := (r.first + uint32(r.toks.Len())) & argMask
	r.toks.Push(dmaToken{issued: r.now(), note: note})
	return rec(noteToken, id)
}

// complete handles the note of token id: the first one runs the token's
// note, later ones are counted as duplicates.
func (r *recovery) complete(fw *Firmware, id uint32) {
	i := int((id - r.first) & argMask)
	if i >= r.toks.Len() || r.toks.Ref(i).done {
		r.DupSuppressed++
		return
	}
	tok := r.toks.Ref(i)
	tok.done = true
	if tok.tries > 0 {
		r.Recovered++
	}
	fw.Complete(tok.note)
}

// RecoveryScan runs one timeout pass: tokens pending longer than the timeout
// are re-issued, oldest first. Done tokens at the front are retired. The
// injector pumps this on the fault event domain every couple of
// microseconds.
func (fw *Firmware) RecoveryScan() {
	r := fw.rec
	if r == nil {
		return
	}
	now := r.now()
	for i := 0; i < r.toks.Len(); i++ {
		tok := r.toks.Ref(i)
		if !tok.done && now-tok.issued >= recoveryTimeout {
			tok.tries++
			tok.issued = now
			r.Retried++
			fw.issue(tok.note, rec(noteToken, (r.first+uint32(i))&argMask))
		}
	}
	for r.toks.Len() > 0 && r.toks.Ref(0).done {
		r.toks.Pop()
		r.first = (r.first + 1) & argMask
	}
}

// TakeOver rescues a preempted core's work: the remainder stream the core
// surrendered plus its queued continuations move to the shared orphan queue,
// which every healthy core drains ahead of new claims. It then repairs the
// ordering state in case the preemption interrupted a flag operation whose
// bookkeeping diverged from the bit arrays.
//
// The core's record of the stream it was last handed is dropped without
// recycling that stream: the remainder shares its ops, so their memory must
// not be reused while the remainder is outstanding.
func (fw *Firmware) TakeOver(coreID int, preempted *cpu.Stream) {
	fw.Takeovers++
	fw.handed[coreID] = nil
	if preempted != nil {
		fw.orphans.Push(preempted)
		fw.Rescued++
	}
	q := &fw.cont[coreID]
	for q.Len() > 0 {
		fw.orphans.Push(q.Pop())
		fw.Rescued++
	}
	fw.repairFlags()
}

// repairFlags resynchronizes the ordering bookkeeping with the status-flag
// arrays: the set counters must equal commit head plus the bits currently
// set, and each array's scan head must sit at the commit point. Preemption
// preserves flag consistency by construction (flag sets fire through the
// crossbar even on a stuck core, and Preempt delivers or re-issues an
// interrupted op's Done record exactly once), so repairs are normally zero;
// this is the belt-and-suspenders pass that restores the invariant if that
// ever breaks.
func (fw *Firmware) repairFlags() {
	fix := func(ba *mem.BitArray, set *uint64, head uint64, bits int) {
		n := 0
		for i := 0; i < bits; i++ {
			if ba.IsSet(i) {
				n++
			}
		}
		if want := head + uint64(n); *set != want {
			*set = want
			fw.FlagRepairs++
		}
		if ba.Head() != int(head%uint64(bits)) {
			ba.Seek(int(head % uint64(bits)))
			fw.FlagRepairs++
		}
	}
	fix(fw.sendFlags, &fw.sendSet, fw.sendCommitHead, FlagBits)
	for _, rq := range fw.rxq {
		fix(rq.flags, &rq.set, rq.commitHead, rq.flagBits)
	}
}

// AuditSend checks send-direction frame conservation: every frame the BD
// fetch admitted is in exactly one pipeline stage or already committed.
func (fw *Firmware) AuditSend() error {
	inFlight := uint64(fw.prepQ.Len()+fw.claimedSend+fw.dmaOutSend+fw.sendDMADone.Len()+fw.ordPendSend) +
		(fw.sendSet - fw.sendCommitHead)
	if got := fw.sendSeq - fw.sendCommitHead; got != inFlight {
		return fmt.Errorf("send conservation: seq-head=%d but stages sum to %d (prepQ=%d claimed=%d dmaOut=%d dmaDone=%d ordPend=%d set-head=%d)",
			got, inFlight, fw.prepQ.Len(), fw.claimedSend, fw.dmaOutSend, fw.sendDMADone.Len(), fw.ordPendSend, fw.sendSet-fw.sendCommitHead)
	}
	return nil
}

// AuditRecv checks receive-direction frame conservation across every queue:
// each arrived frame is in exactly one queue's pipeline stage or committed.
func (fw *Firmware) AuditRecv() error {
	var arrived, dmaDone, setMinusHead, committed uint64
	for _, rq := range fw.rxq {
		arrived += uint64(rq.arrivedQ.Len())
		dmaDone += uint64(rq.dmaDone.Len())
		setMinusHead += rq.set - rq.commitHead
		committed += rq.commitHead
	}
	inFlight := arrived + uint64(fw.claimedRecv+fw.dmaOutRecv) + dmaDone + uint64(fw.ordPendRecv) + setMinusHead
	if got := fw.recvSeq - committed; got != inFlight {
		return fmt.Errorf("recv conservation: seq-heads=%d but stages sum to %d (arrived=%d claimed=%d dmaOut=%d dmaDone=%d ordPend=%d set-head=%d)",
			got, inFlight, arrived, fw.claimedRecv, fw.dmaOutRecv, dmaDone, fw.ordPendRecv, setMinusHead)
	}
	return nil
}

// PendingWork reports frames and events still flowing through the firmware;
// zero means the pipelines are drained. The watchdog uses it to distinguish
// a quiet machine from a livelocked one.
func (fw *Firmware) PendingWork() int {
	var recvCommitted uint64
	recvDone := 0
	for _, rq := range fw.rxq {
		recvCommitted += rq.commitHead
		recvDone += rq.doneQ.Len()
	}
	return int(fw.sendSeq-fw.sendCommitHead) + int(fw.recvSeq-recvCommitted) +
		fw.txDoneQ.Len() + recvDone + fw.orphans.Len()
}

// ProgressSignature summarizes pipeline advance for the forward-progress
// watchdog: if two consecutive checks see the same signature while
// PendingWork is nonzero, the machine is livelocked. Retry and takeover
// counters are included so active recovery counts as progress.
func (fw *Firmware) ProgressSignature() [8]uint64 {
	var retried uint64
	if fw.rec != nil {
		retried = fw.rec.Retried
	}
	var recvCommitted, recvSet uint64
	for _, rq := range fw.rxq {
		recvCommitted += rq.commitHead
		recvSet += rq.set
	}
	return [8]uint64{
		fw.sendSeq, fw.recvSeq,
		fw.sendCommitHead, recvCommitted,
		fw.sendSet, recvSet,
		retried, fw.Takeovers,
	}
}

// RecvSeq returns the number of frames the MAC has handed to firmware.
func (fw *Firmware) RecvSeq() uint64 { return fw.recvSeq }

// SendSeq returns the number of frames admitted by send-BD fetches.
func (fw *Firmware) SendSeq() uint64 { return fw.sendSeq }

// SabotageLeak deliberately corrupts the firmware by dropping one frame from
// an intake queue without any bookkeeping: the frame's ring entry and audit
// accounting are left dangling. Used only to prove the invariant checker
// detects frame leaks; never called in normal operation.
func (fw *Firmware) SabotageLeak(send bool) {
	if send {
		if fw.prepQ.Len() > 0 {
			fw.prepQ.Pop()
		}
	} else {
		for _, rq := range fw.rxq {
			if rq.arrivedQ.Len() > 0 {
				rq.arrivedQ.Pop()
				return
			}
		}
	}
}

// SabotageSwap deliberately swaps two adjacent occupied ring slots past the
// commit head so the next commits deliver frames out of order. Used only to
// prove the invariant checker detects ordering violations.
func (fw *Firmware) SabotageSwap(send bool) {
	if send {
		for i := uint64(0); i+1 < FlagBits; i++ {
			a := (fw.sendCommitHead + i) % FlagBits
			b := (fw.sendCommitHead + i + 1) % FlagBits
			if fw.sendRing[a] != nil && fw.sendRing[b] != nil {
				fw.sendRing[a], fw.sendRing[b] = fw.sendRing[b], fw.sendRing[a]
				return
			}
		}
	} else {
		for _, rq := range fw.rxq {
			bits := uint64(rq.flagBits)
			for i := uint64(0); i+1 < bits; i++ {
				a := (rq.commitHead + i) % bits
				b := (rq.commitHead + i + 1) % bits
				if rq.ring[a] != nil && rq.ring[b] != nil {
					rq.ring[a], rq.ring[b] = rq.ring[b], rq.ring[a]
					return
				}
			}
		}
	}
}
