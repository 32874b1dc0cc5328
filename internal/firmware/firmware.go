package firmware

import (
	"fmt"

	"repro/internal/assist"
	"repro/internal/cpu"
	"repro/internal/fifo"
	"repro/internal/host"
	"repro/internal/mem"
	"repro/internal/obs"
	"repro/internal/stats"
)

// Attribution buckets (cpu.Stream.AcctID). Locking is attributed within
// buckets by the core's lock-sequence counters, giving the paper's eight
// Table 5/6 rows: {Fetch BD, Frame, Dispatch+Ordering, Locking} × direction.
const (
	AcctFetchSendBD = iota
	AcctSendFrame
	AcctSendOrder
	AcctFetchRecvBD
	AcctRecvFrame
	AcctRecvOrder
	AcctIdle
	NumAcct
)

// AcctNames labels the buckets.
var AcctNames = [NumAcct]string{
	"Fetch Send BD", "Send Frame", "Send Dispatch and Ordering",
	"Fetch Receive BD", "Receive Frame", "Receive Dispatch and Ordering",
	"Idle Poll",
}

// Event types, for the task-parallel baseline's event register and for
// dispatch statistics.
type evType int

const (
	evFetchSendBD evType = iota
	evSendPrep
	evSendDone
	evSendCommit
	evSendComplete
	evFetchRecvBD
	evRecvPrep
	evRecvDone
	evRecvCommit
	evRecvComplete
	numEvTypes
)

// Assists bundles the four hardware engines the firmware drives.
type Assists struct {
	DMARead  *assist.DMARead
	DMAWrite *assist.DMAWrite
	MACTx    *assist.MACTx
	MACRx    *assist.MACRx
}

// slotRing is a fixed-slot SDRAM buffer allocator. Slot size is deliberately
// not a multiple of 8 bytes so successive frames start at shifting
// misaligned offsets, reproducing the paper's note that frames "frequently
// are not stored ... such that they start and/or end on even 8-byte
// boundaries".
type slotRing struct {
	base     uint32
	slotSize uint32
	free     []int
}

func newSlotRing(base uint32, slotSize uint32, slots int) *slotRing {
	r := &slotRing{base: base, slotSize: slotSize}
	for i := slots - 1; i >= 0; i-- {
		r.free = append(r.free, i)
	}
	return r
}

func (r *slotRing) alloc() (addr uint32, slot int, ok bool) {
	if len(r.free) == 0 {
		return 0, 0, false
	}
	slot = r.free[len(r.free)-1]
	r.free = r.free[:len(r.free)-1]
	return r.base + uint32(slot)*r.slotSize, slot, true
}

func (r *slotRing) release(slot int) { r.free = append(r.free, slot) }

func (r *slotRing) available() int { return len(r.free) }

// sendFrame is the firmware's record of one frame in the send pipeline,
// from its descriptor fetch to its transmit completion. f is the host's
// frame until the MAC has transmitted it.
type sendFrame struct {
	f    *host.Frame
	idx  uint64
	buf  uint32
	slot int
}

// recvFrame is the firmware's record of one received frame, from its arrival
// in SDRAM to the release of its buffer. f is the frame until it is
// delivered to the host.
type recvFrame struct {
	f    *host.Frame
	idx  uint64 // global arrival index (observation, descriptor addressing)
	q    int    // RSS queue the MAC steered the frame to
	qidx uint64 // per-queue index (status flag and ring position)
	buf  uint32
	slot int
	size int
}

// rxQueue is one receive queue's independent pipeline: its own arrival and
// completion queues, BD credit, status-flag subarray, and in-order commit
// head. A single-queue build has exactly one, whose flag array is the whole
// legacy FlagsRecv region — the seed pipeline, address for address.
type rxQueue struct {
	q        int
	seq      uint64 // frames steered here so far (the next frame's qidx)
	flagBits int
	flagBase uint32
	flags    *mem.BitArray

	arrivedQ    fifo.Queue[*recvFrame]
	bdCredit    int
	bdFetchOut  int
	dmaDone     fifo.Queue[*recvFrame]
	ring        []*recvFrame
	set         uint64
	commitHead  uint64
	commitClaim bool
	doneQ       fifo.Queue[*recvFrame]
}

// bdEntries is the queue's share of the RegionRecvBD descriptor ring.
func (rq *rxQueue) bdEntries(nq int) uint32 { return 2048 / uint32(nq) }

// bdAddr returns the scratchpad address of the fetched receive BD for index
// i of this queue, within the queue's slice of the BD region.
func (rq *rxQueue) bdAddr(nq int, i uint64) uint32 {
	ents := rq.bdEntries(nq)
	return RegionRecvBD + uint32(rq.q)*ents*16 + uint32(i%uint64(ents))*16
}

// Firmware is the NIC firmware model: it owns the functional frame pipeline
// state and supplies work (operation streams) to the cores.
type Firmware struct {
	Prof Profile
	sp   *mem.Scratchpad
	hst  *host.Host
	as   Assists

	sendFlags *mem.BitArray

	txRing *slotRing
	rxRing *slotRing

	// Send pipeline.
	sendSeq         uint64
	bdFetchOut      int
	txReserved      int
	prepQ           fifo.Queue[*sendFrame]
	sendDMADone     fifo.Queue[*sendFrame]
	sendRing        []*sendFrame
	sendSet         uint64 // flags set
	sendCommitHead  uint64
	sendCommitClaim bool
	txDoneQ         fifo.Queue[*sendFrame]

	// Receive pipeline: a global arrival counter (frame identity for
	// observation and conservation audits) plus one independent rxQueue per
	// RSS receive queue.
	recvSeq uint64
	rxq     []*rxQueue
	// Rotating queue cursors, one per receive claim kind, so multi-queue
	// claims visit queues fairly without any shared scan order.
	rxqCur [5]int

	// Pipeline audit counters: frames in the claim→effect windows that the
	// queues above do not cover. Together with the queues they account for
	// every in-flight frame, making the run invariants' conservation audit
	// exact at any instant (all transitions happen within single callbacks).
	claimedSend int // popped from prepQ, frame DMA not yet programmed
	claimedRecv int // popped from rxArrivedQ, descriptor DMA not yet programmed
	dmaOutSend  int // frame-fetch DMAs in flight
	dmaOutRecv  int // descriptor-write DMAs in flight
	ordPendSend int // popped from sendDMADone, status flag not yet set
	ordPendRecv int // popped from rxDMADone, status flag not yet set

	// Fault recovery (nil when no fault plan is attached).
	rec *recovery
	// orphans holds streams rescued from preempted cores, re-dispatched to
	// any core ahead of new claims.
	orphans fifo.Queue[*cpu.Stream]
	// Takeovers counts stuck-core takeovers; Rescued the streams they
	// re-dispatched; FlagRepairs the ordering-state fixes they applied.
	Takeovers   uint64
	Rescued     uint64
	FlagRepairs uint64

	// Per-core continuation queues (segments of the current event).
	cont []fifo.Queue[*cpu.Stream]
	// handed is the stream each core was last given, recycled into pool on
	// the core's next request (see pool.go).
	handed []*cpu.Stream
	pool   streamPool

	// Free lists of the per-frame records and of batch records (see
	// completion.go), and the frame batch a claim builds its stream from.
	sendFree    fifo.Free[sendFrame]
	recvFree    fifo.Free[recvFrame]
	batches     []batch
	freeBatches []uint32
	scratchSend []*sendFrame
	scratchRecv []*recvFrame

	// Task-parallel event register: one core per event type.
	typeBusy [numEvTypes]bool

	evSeq   uint64
	seedCtr int64
	claimRR int
	nCores  int

	// Statistics.
	Events      [numEvTypes]stats.Counter
	TxCommitted stats.Counter
	RxDelivered stats.Counter
	// OnTransmit observes transmitted frames (order validation).
	OnTransmit func(f *host.Frame)
	// Obs, when non-nil, receives per-frame lifecycle stage events. All
	// recording happens inside callbacks that already run at the
	// timing-correct instants, so the hooks cannot perturb the simulation.
	Obs *obs.Recorder
}

// New wires a firmware instance to the memory system, host, and assists,
// and installs its callbacks on the assists. slotBytes sizes the SDRAM frame
// buffer slots; zero means the standard 1530 bytes (a maximum frame plus
// slack, deliberately not 8-byte aligned), and jumbo-enabled builds pass a
// slot large enough for a jumbo frame.
func New(prof Profile, sp *mem.Scratchpad, hst *host.Host, as Assists, nCores int, txSlots, rxSlots int, slotBytes uint32) *Firmware {
	if slotBytes == 0 {
		slotBytes = 1530
	}
	fw := &Firmware{
		Prof:      prof,
		sp:        sp,
		hst:       hst,
		as:        as,
		sendFlags: mem.NewBitArray(sp, FlagsSend, FlagBits),
		txRing:    newSlotRing(0x000000, slotBytes, txSlots),
		rxRing:    newSlotRing(0x800000, slotBytes, rxSlots),
		sendRing:  make([]*sendFrame, FlagBits),
		cont:      make([]fifo.Queue[*cpu.Stream], nCores),
		handed:    make([]*cpu.Stream, nCores),
		nCores:    nCores,
	}
	// One receive pipeline per host receive queue. The status-flag region is
	// subdivided evenly: with one queue the subarray is the entire legacy
	// FlagsRecv array, so the seed build's flag addresses are unchanged.
	nq := hst.RxQueues()
	bits := RecvFlagBits(nq)
	for q := 0; q < nq; q++ {
		rq := &rxQueue{
			q:        q,
			flagBits: bits,
			flagBase: FlagsRecvQ(q, nq),
			ring:     make([]*recvFrame, bits),
		}
		rq.flags = mem.NewBitArray(sp, rq.flagBase, bits)
		fw.rxq = append(fw.rxq, rq)
	}
	as.MACRx.Alloc = func(size int, handle any) (uint32, bool) {
		addr, _, ok := fw.rxRing.alloc()
		if !ok {
			return 0, false
		}
		return addr, true
	}
	as.MACRx.OnReceive = func(buf uint32, size int, handle any, queue int) {
		rq := fw.rxq[queue]
		fr := fw.recvFree.Get()
		*fr = recvFrame{f: handle.(*host.Frame), idx: fw.recvSeq, q: queue, qidx: rq.seq, buf: buf, size: size}
		fw.recvSeq++
		rq.seq++
		rq.ring[fr.qidx%uint64(rq.flagBits)] = fr
		fr.slot = int((buf - fw.rxRing.base) / fw.rxRing.slotSize)
		rq.arrivedQ.Push(fr)
		fw.Obs.FrameStageQ(obs.Recv, obs.RecvBuffered, fr.idx, fr.q)
	}
	as.MACTx.OnTransmit = func(handle any) {
		fr := handle.(*sendFrame)
		f := fr.f
		fr.f = nil
		fw.txDoneQ.Push(fr)
		fw.Obs.FrameStage(obs.Send, obs.SendWireDone, fr.idx)
		if fw.OnTransmit != nil {
			fw.OnTransmit(f)
		}
	}
	as.DMARead.SetOwner(fw)
	as.DMAWrite.SetOwner(fw)
	return fw
}

// Code-region base addresses of the firmware image. The handlers pack
// contiguously into under 6 KB so the 8 KB per-core caches capture the whole
// working set (distinct cache sets per handler) even as tasks migrate
// between cores.
const (
	codeDispatchBase = 0x0000 // 1024 B
	codeFetchBDBase  = 0x0400 // 1024 B
	codeSendBase     = 0x0800 // 2816 B
	codeRecvBase     = 0x1300 // 2816 B
	codeOrderBase    = 0x1e00 // 1024 B
)

// NextWorkFor returns the dispatch closure for one core.
func (fw *Firmware) NextWorkFor(coreID int) func() *cpu.Stream {
	return func() *cpu.Stream { return fw.nextWork(coreID) }
}

// nextWork recycles the stream the core last ran and picks its next one:
// continuations of the current event first, then new events by priority,
// then an idle poll pass.
func (fw *Firmware) nextWork(coreID int) *cpu.Stream {
	if s := fw.handed[coreID]; s != nil {
		fw.handed[coreID] = nil
		fw.pool.put(s)
	}
	s := fw.pick(coreID)
	fw.handed[coreID] = s
	return s
}

func (fw *Firmware) pick(coreID int) *cpu.Stream {
	if q := &fw.cont[coreID]; q.Len() > 0 {
		return q.Pop()
	}
	// Streams rescued from a preempted core run before any new claim so a
	// takeover cannot reorder work that was already dispatched.
	if fw.orphans.Len() > 0 {
		return fw.orphans.Pop()
	}
	for _, c := range headClaims {
		if s := fw.try(coreID, c); s != nil {
			return s
		}
	}
	fw.claimRR++
	for i := 0; i < len(rotatingClaims); i++ {
		if s := fw.try(coreID, rotatingClaims[(i+fw.claimRR)%len(rotatingClaims)]); s != nil {
			return s
		}
	}
	return fw.pollStream(coreID)
}

type claim struct {
	t evType
	f func(*Firmware, int) *cpu.Stream
}

// Commits always go first (they unblock both pipelines and are cheap); the
// remaining claims rotate round-robin so neither direction starves the other.
var (
	headClaims = [...]claim{
		{evRecvCommit, (*Firmware).claimRecvCommit},
		{evSendCommit, (*Firmware).claimSendCommit},
	}
	rotatingClaims = [...]claim{
		{evRecvDone, (*Firmware).claimRecvDone},
		{evSendDone, (*Firmware).claimSendDone},
		{evRecvPrep, (*Firmware).claimRecvPrep},
		{evSendPrep, (*Firmware).claimSendPrep},
		{evRecvComplete, (*Firmware).claimRecvComplete},
		{evSendComplete, (*Firmware).claimSendComplete},
		{evFetchRecvBD, (*Firmware).claimFetchRecvBD},
		{evFetchSendBD, (*Firmware).claimFetchSendBD},
	}
)

// try attempts one claim for a core, honouring the task-parallel event
// register.
func (fw *Firmware) try(coreID int, c claim) *cpu.Stream {
	g := eventGroup[c.t]
	if fw.Prof.Parallelism == TaskParallel && fw.typeBusy[g] {
		return nil
	}
	s := c.f(fw, coreID)
	if s == nil {
		return nil
	}
	fw.Events[c.t].Inc()
	if fw.Prof.Parallelism == TaskParallel {
		fw.typeBusy[g] = true
		fw.markRelease(coreID, g, s)
	}
	return s
}

// eventGroup maps fine-grained work units onto the Tigon-II event-register
// bits the task-parallel baseline serializes on. The event register has one
// bit per hardware event type — all send-frame processing is one handler, as
// is all receive-frame processing — which is exactly why task-level
// parallelism cannot use many cores ("so long as a processor is engaged in
// handling a specific type of event, no other processor can simultaneously
// handle that same type of event").
var eventGroup = [numEvTypes]evType{
	evFetchSendBD:  evFetchSendBD,
	evSendPrep:     evSendPrep, // the send-frame handler bit
	evSendDone:     evSendPrep,
	evSendCommit:   evSendPrep,
	evSendComplete: evSendPrep,
	evFetchRecvBD:  evFetchRecvBD,
	evRecvPrep:     evRecvPrep, // the receive-frame handler bit
	evRecvDone:     evRecvPrep,
	evRecvCommit:   evRecvPrep,
	evRecvComplete: evRecvPrep,
}

// markRelease clears a task-parallel busy flag when the event's final
// segment finishes, after the segment's own completion.
func (fw *Firmware) markRelease(coreID int, g evType, first *cpu.Stream) {
	last := first
	if q := &fw.cont[coreID]; q.Len() > 0 {
		last = *q.Ref(q.Len() - 1)
	}
	if last.Done == 0 {
		last.Done = rec(doneEnd, 0)
	}
	last.Done = withRelease(last.Done, g)
}

// batch limits per-event frame counts; the task-parallel baseline processes
// everything pending of a type at once (its handlers are not reentrant).
func (fw *Firmware) batch(avail int) int { return min(avail, fw.maxBatch()) }

// maxBatch is the most frames one event takes.
func (fw *Firmware) maxBatch() int {
	if fw.Prof.Parallelism == TaskParallel {
		return 4 * fw.Prof.EventBatch
	}
	return fw.Prof.EventBatch
}

// take moves the n oldest frames of q into dst's array and returns them. An
// array too small is replaced by one for the largest batch, so each batch
// record and scratch slice allocates at most once.
func take[T any](fw *Firmware, q *fifo.Queue[T], n int, dst []T) []T {
	if cap(dst) < n {
		dst = make([]T, 0, fw.maxBatch())
	}
	dst = dst[:0]
	for i := 0; i < n; i++ {
		dst = append(dst, q.Pop())
	}
	return dst
}

// seed returns a fresh deterministic stream seed.
func (fw *Firmware) seed() int64 {
	fw.seedCtr++
	return fw.seedCtr
}

// builder starts a stream with a fresh seed, on memory from the pool, whose
// completion records go to the firmware.
func (fw *Firmware) builder() streamBuilder {
	b := newBuilder(&fw.pool, fw.seed(), fw.Prof.HazardFrac)
	b.owner = fw
	return b
}

// eventAddr returns the scratchpad address of the next event structure.
func (fw *Firmware) eventAddr() uint32 {
	a := RegionEvents + uint32(fw.evSeq%512)*32
	fw.evSeq++
	return a
}

// desc returns the offset of a frame's stage block within its direction's
// descriptor region.
func desc(idx uint64, stage uint32) uint32 {
	return uint32(idx%DescEntries)*DescStride + stage
}

// dispatchStream charges the per-event dispatch cost: inspecting hardware
// pointers, building the event structure, and inserting it into the shared
// event queue under the queue lock (software-raised events and retries flow
// through the same queue, so every dispatch synchronizes on it).
func (fw *Firmware) dispatchStream(acct int) *cpu.Stream {
	b := fw.builder()
	ev := fw.eventAddr()
	b.cost(fw.Prof.DispatchPerEvent, b.cycle(ev, PtrDMARead, PtrMACRx))
	b.lock(LockEventQ, 0)
	b.alu(3)
	b.load(ev)
	b.store(ev)
	b.unlock(LockEventQ, 0)
	return b.build("dispatch", codeDispatchBase, fw.Prof.CodeDispatch, acct, 0)
}

// pollStream is an unproductive pass over the hardware pointers. In the
// software-only firmware the dispatch loop must also check the status-flag
// arrays for committable runs, which takes the ordering locks and scans flag
// words — the "synchronized, looping memory accesses" the paper identifies
// as a significant overhead. The update instruction eliminates exactly these
// scans, so the RMW-enhanced poll touches only the hardware pointers.
func (fw *Firmware) pollStream(coreID int) *cpu.Stream {
	b := fw.builder()
	b.cost(fw.Prof.PollPass, b.cycle(PtrMailbox, PtrDMARead, PtrDMAWrite, PtrMACTx, PtrMACRx, PtrRecvBDPool))
	if fw.Prof.Ordering == SoftwareOnly {
		b.flagScan(LockSendOrd, FlagsSend, fw.sendCommitHead, FlagBits)
		// Every receive queue's flag subarray is scanned under its own
		// ordering lock — the per-queue share of the "synchronized, looping
		// memory accesses" the dispatch loop pays in software-only mode.
		for _, rq := range fw.rxq {
			b.flagScan(LockRecvOrdQ(rq.q), rq.flagBase, rq.commitHead, uint64(rq.flagBits))
		}
	}
	return b.build("poll", codeDispatchBase, fw.Prof.CodeDispatch, AcctIdle, 0)
}

// flagScan appends one software-only poll check of a status-flag array: the
// two words at the commit head, read under the array's ordering lock.
func (b *streamBuilder) flagScan(lock, base uint32, head, bits uint64) {
	word := base + uint32((head%bits)/32)*4
	b.lock(lock, 0)
	b.alu(3)
	b.load(word)
	b.alu(3)
	b.load(word + 4)
	b.alu(2)
	b.unlock(lock, 0)
}

// chain returns the first stream and queues the rest as continuations.
func (fw *Firmware) chain(coreID int, streams ...*cpu.Stream) *cpu.Stream {
	for _, s := range streams[1:] {
		fw.cont[coreID].Push(s)
	}
	return streams[0]
}

// ---------------------------------------------------------------------------
// Send path
// ---------------------------------------------------------------------------

// claimFetchSendBD starts a send-descriptor batch fetch: the paper's "Fetch
// Send BD" task, one DMA of up to 32 descriptors (16 frames).
func (fw *Firmware) claimFetchSendBD(coreID int) *cpu.Stream {
	if fw.bdFetchOut >= 2 || fw.hst.PostedSendBDs() < 2 || fw.prepQ.Len() > 256 {
		return nil
	}
	nBDs := fw.hst.PostedSendBDs()
	if nBDs > SendBDsPerBatch {
		nBDs = SendBDsPerBatch
	}
	nBDs &^= 1 // whole frames only
	if nBDs == 0 {
		return nil
	}
	fw.bdFetchOut++

	b := fw.builder()
	base := RegionSendBD + uint32(fw.sendSeq%2048)*16
	b.cost(fw.Prof.FetchSendBDBatch.scale(float64(nBDs)/SendBDsPerBatch), b.cycle(base, base+16, base+32))
	b.lock(LockSendBD, 0)
	b.alu(4)
	b.store(base)
	b.unlock(LockSendBD, 0)
	rb := fw.newBatch()
	fw.batches[rb].n, fw.batches[rb].base = nBDs, base
	b.then(rec(doneFetchSendBD, rb))
	work := b.build("fetch-send-bd", codeFetchBDBase, fw.Prof.CodeFetchBD, AcctFetchSendBD, 0)
	return fw.chain(coreID, fw.dispatchStream(AcctSendOrder), work)
}

// claimSendPrep processes fetched descriptors: reads BDs, allocates transmit
// buffer space, and programs the DMA read engine — "Send Frame" part one.
func (fw *Firmware) claimSendPrep(coreID int) *cpu.Stream {
	if fw.prepQ.Len() == 0 {
		return nil
	}
	n := fw.batch(fw.prepQ.Len())
	if free := fw.txRing.available() - fw.txReserved; free < n {
		n = free
	}
	if n <= 0 {
		return nil
	}
	fw.txReserved += n
	rb := fw.newBatch()
	frames := take(fw, &fw.prepQ, n, fw.batches[rb].send)
	fw.batches[rb].send = frames
	fw.claimedSend += n

	b := fw.builder()
	bases := b.list()
	for _, fr := range frames {
		bases = b.add(bases,
			RegionSendBD+uint32(fr.idx%2048)*16,
			RegionSendDesc+desc(fr.idx, DescStagePrep))
	}
	b.cost2(fw.Prof.SendFramePrep.scale(float64(n)), walk(bases), walk(b.odd(bases)))
	// Transmit-buffer allocation: the lock is held across the per-frame
	// allocation loop, as in the Tigon-derived firmware, so concurrent
	// send-prepare events on other cores serialize here.
	b.lock(LockTxAlloc, 0)
	for i := 0; i < n; i++ {
		b.alu(4)
		b.load(PtrDMARead)
		b.store(bases[i%len(bases)])
	}
	b.unlock(LockTxAlloc, 0)
	b.then(rec(doneSendPrep, rb))
	work := b.build("send-prep", codeSendBase, fw.Prof.CodeSendFrame, AcctSendFrame, 0)
	return fw.chain(coreID, fw.dispatchStream(AcctSendOrder), work)
}

// claimSendDone processes frame-DMA completions and marks each frame's
// status flag — "Send Frame" part two plus the ordering set.
func (fw *Firmware) claimSendDone(coreID int) *cpu.Stream {
	if fw.sendDMADone.Len() == 0 {
		return nil
	}
	n := fw.batch(fw.sendDMADone.Len())
	frames := take(fw, &fw.sendDMADone, n, fw.scratchSend)
	fw.scratchSend = frames
	fw.ordPendSend += n

	b := fw.builder()
	bases := b.list()
	for _, fr := range frames {
		bases = b.add(bases, RegionSendDesc+desc(fr.idx, DescStageDone))
	}
	b.cost2(fw.Prof.SendFrameDone.add(fw.Prof.ExtensionPerFrame).scale(float64(n)), walk(bases), walk(b.offset(bases, DescStageDoneStore-DescStageDone)))
	work := b.build("send-done", codeSendBase, fw.Prof.CodeSendFrame, AcctSendFrame, 0)

	ord := fw.orderingSetStream(true, frames, nil)
	return fw.chain(coreID, fw.dispatchStream(AcctSendOrder), work, ord)
}

// claimSendCommit advances the in-order commit point and hands consecutive
// ready frames to the MAC — the dispatch-loop commit of the paper.
func (fw *Firmware) claimSendCommit(coreID int) *cpu.Stream {
	if fw.sendCommitClaim || fw.sendSet == fw.sendCommitHead {
		return nil
	}
	ready := fw.consecutiveReady(fw.sendFlags, fw.sendCommitHead, FlagBits)
	if ready == 0 {
		return nil
	}
	fw.sendCommitClaim = true
	return fw.commitStream(coreID, true, nil, ready)
}

// claimSendComplete handles transmit completions: frees buffer space and
// notifies the host — "Send Frame" part three.
func (fw *Firmware) claimSendComplete(coreID int) *cpu.Stream {
	if fw.txDoneQ.Len() == 0 {
		return nil
	}
	n := fw.batch(fw.txDoneQ.Len())
	rb := fw.newBatch()
	frames := take(fw, &fw.txDoneQ, n, fw.batches[rb].send)
	fw.batches[rb].send = frames

	b := fw.builder()
	bases := b.list()
	for _, fr := range frames {
		bases = b.add(bases, RegionSendDesc+desc(fr.idx, DescStageComplete))
	}
	b.cost2(fw.Prof.SendFrameComplete.scale(float64(n)), walk(bases), walk(b.offset(bases, DescStageCompleteStore-DescStageComplete)))
	// Host notification: the consumer-index updates for the batch happen
	// under one lock hold.
	b.lock(LockHostNtfy, 0)
	for i := 0; i < n; i++ {
		b.alu(3)
		b.store(PtrMACTx)
	}
	b.unlock(LockHostNtfy, 0)
	b.then(rec(doneSendComplete, rb))
	work := b.build("send-complete", codeSendBase, fw.Prof.CodeSendFrame, AcctSendFrame, 0)
	return fw.chain(coreID, fw.dispatchStream(AcctSendOrder), work)
}

// ---------------------------------------------------------------------------
// Receive path
// ---------------------------------------------------------------------------

// eachRxQueue visits the receive queues starting at the rotating cursor for
// one claim kind, returning the first queue's stream. The cursor advances
// past a successful claim so no queue monopolizes a claim kind; with one
// queue the scan is a single probe of queue 0, as in the seed firmware.
func (fw *Firmware) eachRxQueue(kind int, try func(rq *rxQueue) *cpu.Stream) *cpu.Stream {
	nq := len(fw.rxq)
	for i := 0; i < nq; i++ {
		qi := (fw.rxqCur[kind] + i) % nq
		if s := try(fw.rxq[qi]); s != nil {
			fw.rxqCur[kind] = (qi + 1) % nq
			return s
		}
	}
	return nil
}

// claimFetchRecvBD replenishes a queue's receive-buffer descriptor pool:
// "Fetch Receive BD", one DMA of up to 16 descriptors. Each queue fetches
// from its own host ring under its own lock, so BD production is
// independent per queue.
func (fw *Firmware) claimFetchRecvBD(coreID int) *cpu.Stream {
	return fw.eachRxQueue(0, func(rq *rxQueue) *cpu.Stream {
		if rq.bdFetchOut >= 2 || rq.bdCredit > 128 || fw.hst.PostedRecvBDs(rq.q) == 0 {
			return nil
		}
		n := fw.hst.PostedRecvBDs(rq.q)
		if n > RecvBDsPerBatch {
			n = RecvBDsPerBatch
		}
		rq.bdFetchOut++

		b := fw.builder()
		base := rq.bdAddr(len(fw.rxq), rq.seq)
		b.cost(fw.Prof.FetchRecvBDBatch.scale(float64(n)/RecvBDsPerBatch), b.cycle(base, base+16))
		b.lock(LockRecvBDQ(rq.q), 0)
		b.alu(4)
		b.store(base)
		b.unlock(LockRecvBDQ(rq.q), 0)
		rb := fw.newBatch()
		fw.batches[rb].q, fw.batches[rb].n, fw.batches[rb].base = rq.q, n, base
		b.then(rec(doneFetchRecvBD, rb))
		work := b.build("fetch-recv-bd", codeFetchBDBase, fw.Prof.CodeFetchBD, AcctFetchRecvBD, 0)
		return fw.chain(coreID, fw.dispatchStream(AcctRecvOrder), work)
	})
}

// claimRecvPrep matches one queue's arrived frames with receive buffers and
// programs the DMA write engine — "Receive Frame" part one.
func (fw *Firmware) claimRecvPrep(coreID int) *cpu.Stream {
	return fw.eachRxQueue(1, func(rq *rxQueue) *cpu.Stream {
		if rq.arrivedQ.Len() == 0 || rq.bdCredit == 0 {
			return nil
		}
		n := fw.batch(rq.arrivedQ.Len())
		if n > rq.bdCredit {
			n = rq.bdCredit
		}
		rb := fw.newBatch()
		frames := take(fw, &rq.arrivedQ, n, fw.batches[rb].recv)
		fw.batches[rb].q, fw.batches[rb].recv = rq.q, frames
		rq.bdCredit -= n
		fw.claimedRecv += n

		b := fw.builder()
		bases := b.list()
		for _, fr := range frames {
			bases = b.add(bases,
				rq.bdAddr(len(fw.rxq), fr.qidx),
				RegionRecvDesc+desc(fr.idx, DescStagePrep))
		}
		b.cost2(fw.Prof.RecvFramePrep.scale(float64(n)), walk(bases), walk(b.odd(bases)))
		// Receive-buffer pool bookkeeping holds the queue's pool lock across
		// the per-frame matching loop. The paper singles this lock out:
		// contention on "a lock in the receive path" limits the RMW-enhanced
		// configuration's peak frame rate — per-queue pool locks are exactly
		// the relief RSS buys.
		b.lock(LockRxPoolQ(rq.q), 0)
		for i := 0; i < n; i++ {
			b.alu(4)
			b.load(PtrRecvBDPoolQ(rq.q))
			b.store(bases[i%len(bases)])
		}
		b.unlock(LockRxPoolQ(rq.q), 0)
		b.then(rec(doneRecvPrep, rb))
		work := b.build("recv-prep", codeRecvBase, fw.Prof.CodeRecvFrame, AcctRecvFrame, 0)
		return fw.chain(coreID, fw.dispatchStream(AcctRecvOrder), work)
	})
}

// claimRecvDone processes one queue's host-DMA completions and sets its
// status flags — "Receive Frame" part two plus the ordering set.
func (fw *Firmware) claimRecvDone(coreID int) *cpu.Stream {
	return fw.eachRxQueue(2, func(rq *rxQueue) *cpu.Stream {
		if rq.dmaDone.Len() == 0 {
			return nil
		}
		n := fw.batch(rq.dmaDone.Len())
		frames := take(fw, &rq.dmaDone, n, fw.scratchRecv)
		fw.scratchRecv = frames
		fw.ordPendRecv += n

		b := fw.builder()
		bases := b.list()
		for _, fr := range frames {
			bases = b.add(bases, RegionRecvDesc+desc(fr.idx, DescStageDone))
		}
		b.cost2(fw.Prof.RecvFrameDone.add(fw.Prof.ExtensionPerFrame).scale(float64(n)), walk(bases), walk(b.offset(bases, DescStageDoneStore-DescStageDone)))
		work := b.build("recv-done", codeRecvBase, fw.Prof.CodeRecvFrame, AcctRecvFrame, 0)

		ord := fw.orderingSetStream(false, nil, frames)
		return fw.chain(coreID, fw.dispatchStream(AcctRecvOrder), work, ord)
	})
}

// claimRecvCommit advances one queue's commit point, delivering that
// queue's consecutive frames to the host in its arrival order — the
// per-queue (not global) in-order invariant RSS relaxes to.
func (fw *Firmware) claimRecvCommit(coreID int) *cpu.Stream {
	return fw.eachRxQueue(3, func(rq *rxQueue) *cpu.Stream {
		if rq.commitClaim || rq.set == rq.commitHead {
			return nil
		}
		ready := fw.consecutiveReady(rq.flags, rq.commitHead, rq.flagBits)
		if ready == 0 {
			return nil
		}
		rq.commitClaim = true
		return fw.commitStream(coreID, false, rq, ready)
	})
}

// claimRecvComplete frees one queue's receive buffer slots after delivery —
// "Receive Frame" part three.
func (fw *Firmware) claimRecvComplete(coreID int) *cpu.Stream {
	return fw.eachRxQueue(4, func(rq *rxQueue) *cpu.Stream {
		if rq.doneQ.Len() == 0 {
			return nil
		}
		n := fw.batch(rq.doneQ.Len())
		rb := fw.newBatch()
		frames := take(fw, &rq.doneQ, n, fw.batches[rb].recv)
		fw.batches[rb].recv = frames

		b := fw.builder()
		bases := b.list()
		for _, fr := range frames {
			bases = b.add(bases, RegionRecvDesc+desc(fr.idx, DescStageComplete))
		}
		b.cost2(fw.Prof.RecvFrameComplete.scale(float64(n)), walk(bases), walk(b.offset(bases, DescStageCompleteStore-DescStageComplete)))
		b.lock(LockRxPoolQ(rq.q), 0)
		for i := 0; i < n; i++ {
			b.alu(3)
			b.store(PtrRecvBDPoolQ(rq.q))
		}
		b.unlock(LockRxPoolQ(rq.q), 0)
		b.then(rec(doneRecvComplete, rb))
		work := b.build("recv-complete", codeRecvBase, fw.Prof.CodeRecvFrame, AcctRecvFrame, 0)
		return fw.chain(coreID, fw.dispatchStream(AcctRecvOrder), work)
	})
}

// ---------------------------------------------------------------------------
// Ordering
// ---------------------------------------------------------------------------

// consecutiveReady counts consecutive set flags from the commit head of a
// bits-sized flag array, functionally (the timing cost is charged by the
// commit stream's ops).
func (fw *Firmware) consecutiveReady(ba *mem.BitArray, head uint64, bits int) int {
	n := 0
	for n < bits && ba.IsSet(int((head+uint64(n))%uint64(bits))) {
		n++
	}
	return n
}

// orderingSetStream builds the per-frame status-flag set segment: the
// lock-protected read-modify-write sequence in software-only mode, or one
// atomic set instruction in RMW mode. Exactly one of sf/rf is non-nil, and
// a receive batch is always frames of a single queue, whose flag subarray
// and ordering lock the stream targets.
func (fw *Firmware) orderingSetStream(send bool, sf []*sendFrame, rf []*recvFrame) *cpu.Stream {
	var rq *rxQueue
	lockAddr := uint32(LockSendOrd)
	acct := AcctSendOrder
	flagBase := uint32(FlagsSend)
	flagBits := uint64(FlagBits)
	if !send {
		rq = fw.rxq[rf[0].q]
		lockAddr = LockRecvOrdQ(rq.q)
		acct = AcctRecvOrder
		flagBase = rq.flagBase
		flagBits = uint64(rq.flagBits)
	}
	n := len(sf) + len(rf)
	// bit is frame i's status flag; setFlag the record that sets it.
	bit := func(i int) uint64 {
		if send {
			return sf[i].idx % flagBits
		}
		return rf[i].qidx % flagBits
	}
	wordAddr := func(i int) uint32 {
		return flagBase + uint32(bit(i)/32)*4
	}
	setFlag := func(i int) uint32 {
		if send {
			return rec(doneSetSend, uint32(bit(i)))
		}
		return rec(doneSetRecv, qarg(rq.q, bit(i)))
	}

	syncOrder := fw.Prof.SyncOrderRecv
	syncLock := fw.Prof.SyncLockRecv
	if send {
		syncOrder = fw.Prof.SyncOrderSend
		syncLock = fw.Prof.SyncLockSend
	}
	// Task-level parallel firmware never runs a handler on two cores at
	// once, so it pays no reentrancy synchronization (its handlers are not
	// reentrant; that is exactly what caps its scaling).
	extra := n * (fw.nCores - 1)
	if fw.Prof.Parallelism == TaskParallel {
		extra = 0
	}

	b := fw.builder()
	if fw.Prof.Ordering == SoftwareOnly {
		// The measured sw_set kernel, per frame: lock acquire (ll/bnez/
		// addiu/sc/beqz/nop emerge from OpLock), index arithmetic, word
		// read-modify-write, release. This per-frame synchronization is
		// exactly the overhead the paper's set instruction removes.
		for i := 0; i < n; i++ {
			b.lock(lockAddr, 0)
			b.alu(3)
			b.load(wordAddr(i))
			b.alu(4)
			b.store(wordAddr(i))
			b.then(setFlag(i))
			b.unlock(lockAddr, 0)
			b.alu(2)
		}
		// Reentrancy synchronization against every other active core's
		// concurrent handlers (removed entirely by the RMW instructions).
		b.cost(syncOrder.scale(float64(extra)), b.cycle(wordAddr(0), lockAddr))
	} else {
		for i := 0; i < n; i++ {
			// setb: one atomic transaction, plus return linkage.
			b.rmw(wordAddr(i), setFlag(i))
			b.alu(2)
		}
	}
	// The lock-based share of reentrancy synchronization remains under
	// either ordering implementation and is real locking work: acquire and
	// release rounds on the direction's pool/notify lock. Under RMW it
	// grows: "contention among the remaining firmware locks increases. This
	// problem is particularly troublesome for a lock in the receive path."
	if fw.Prof.Ordering == RMWEnhanced {
		syncLock = syncLock.scale(1.5)
	}
	poolLock := uint32(LockHostNtfy)
	if !send {
		poolLock = LockRxPoolQ(rq.q)
	}
	// Each uncontended round costs ~8 instructions (6-instruction acquire,
	// release store, linkage), so rounds approximate the budgeted share.
	rounds := extra * syncLock.Instr / 8
	for r := 0; r < rounds; r++ {
		b.lock(poolLock, 0)
		b.unlock(poolLock, 0)
	}
	return b.build("ordering-set", codeOrderBase, fw.Prof.CodeOrdering, acct, 0)
}

// commitStream builds the in-order commit: the software-only scan clears
// ready flags one lock-protected word access at a time; the RMW version is a
// single atomic update. Commit actions (handing frames to the MAC or to the
// host) run serialized inside the final memory transaction's completion.
// rq is the receive queue being committed (nil on the send side).
func (fw *Firmware) commitStream(coreID int, send bool, rq *rxQueue, ready int) *cpu.Stream {
	acct := AcctSendOrder
	lockAddr := uint32(LockSendOrd)
	flagBase := uint32(FlagsSend)
	flagBits := uint64(FlagBits)
	hwPtr := uint32(PtrMACTx)
	head := fw.sendCommitHead
	if !send {
		acct = AcctRecvOrder
		lockAddr = LockRecvOrdQ(rq.q)
		flagBase = rq.flagBase
		flagBits = uint64(rq.flagBits)
		hwPtr = PtrDMAWrite
		head = rq.commitHead
	}

	b := fw.builder()
	b.cost(fw.Prof.CommitPerEvent, b.cycle(fw.eventAddr(), hwPtr))

	wordAt := func(k uint64) uint32 {
		return flagBase + uint32((k%flagBits)/32)*4
	}

	commit, update, end := rec(doneCommitSend, uint32(ready)), rec(doneUpdateSend, 0), rec(doneEndCommitSend, 0)
	if !send {
		commit = rec(doneCommitRecv, qarg(rq.q, uint64(ready)))
		update, end = rec(doneUpdateRecv, qarg(rq.q, 0)), rec(doneEndCommitRecv, qarg(rq.q, 0))
	}
	if fw.Prof.Ordering == SoftwareOnly {
		b.lock(lockAddr, 0)
		b.load(wordAt(head)) // read head pointer word
		for i := 0; i < ready; i++ {
			// Scan iteration: index math, load word, test, clear, store.
			b.alu(3)
			b.load(wordAt(head + uint64(i)))
			b.alu(4)
			b.store(wordAt(head + uint64(i)))
		}
		// Terminating iteration (bit clear) plus head and pointer stores.
		b.alu(6)
		b.store(hwPtr)
		b.then(commit)
		b.unlock(lockAddr, 0)
		b.alu(2)
	} else {
		// upd: one atomic transaction bounded to a single word; commit what
		// it actually cleared, then publish the hardware pointer.
		b.rmw(wordAt(head), update)
		b.alu(2)
		b.store(hwPtr)
		b.alu(2)
	}
	return b.build("commit", codeOrderBase, fw.Prof.CodeOrdering, acct, end)
}

// commit clears n flags through the bit array (software scan semantics) and
// applies the commit actions.
func (fw *Firmware) commit(send bool, rq *rxQueue, n int) {
	ba := fw.sendFlags
	if !send {
		ba = rq.flags
	}
	cleared := 0
	for cleared < n {
		_, k := ba.Update()
		if k == 0 {
			break
		}
		cleared += k
	}
	fw.commitCleared(send, rq, cleared)
}

// commitCleared hands k consecutive frames past the commit head to the next
// stage, in order (per queue on the receive side).
func (fw *Firmware) commitCleared(send bool, rq *rxQueue, k int) {
	for i := 0; i < k; i++ {
		if send {
			fr := fw.sendRing[fw.sendCommitHead%FlagBits]
			if fr == nil {
				panic(fmt.Sprintf("firmware: committing absent send frame %d", fw.sendCommitHead))
			}
			fw.sendRing[fw.sendCommitHead%FlagBits] = nil
			fw.sendCommitHead++
			fw.TxCommitted.Inc()
			fw.as.MACTx.Send(fr.buf, fr.f.Size, fr)
			fw.Obs.FrameStage(obs.Send, obs.SendCommitted, fr.idx)
		} else {
			fr := rq.ring[rq.commitHead%uint64(rq.flagBits)]
			if fr == nil {
				panic(fmt.Sprintf("firmware: committing absent receive frame %d on queue %d", rq.commitHead, rq.q))
			}
			rq.ring[rq.commitHead%uint64(rq.flagBits)] = nil
			rq.commitHead++
			fw.RxDelivered.Inc()
			fw.hst.DeliverFrame(fr.f, rq.q)
			fr.f = nil
			rq.doneQ.Push(fr)
			fw.Obs.FrameStageQ(obs.Recv, obs.RecvDelivered, fr.idx, rq.q)
		}
	}
}
