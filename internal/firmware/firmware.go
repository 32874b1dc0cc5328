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

func (r *slotRing) alloc() (addr uint32, ok bool) {
	if len(r.free) == 0 {
		return 0, false
	}
	slot := r.free[len(r.free)-1]
	r.free = r.free[:len(r.free)-1]
	return r.base + uint32(slot)*r.slotSize, true
}

// release frees the slot at addr.
func (r *slotRing) release(addr uint32) { r.free = append(r.free, int((addr-r.base)/r.slotSize)) }

func (r *slotRing) available() int { return len(r.free) }

// frame is the firmware's record of one frame in either pipeline: a sent
// frame from its descriptor fetch to its transmit completion, a received one
// from its arrival in SDRAM to the release of its buffer. f is the host's
// frame until the MAC has transmitted it or the host has taken delivery.
// Its ring, and its receive queue, are known from where it is held.
type frame struct {
	f     *host.Frame
	idx   uint64 // direction-wide index (descriptor addressing, trace events)
	pos   uint64 // position on its ordering ring (status flag and ring entry)
	buf   uint32
	size  uint16 // received length; a sent frame's is f.Size
	entry uint16 // index in its direction's frameTable (latency observation)
}

// orderRing is one in-order commit point, the paper's ordering mechanism:
// a status-flag array whose bits frames set as they finish, and a commit
// head from which consecutive set flags are cleared and their frames handed
// on in order — by a lock-protected software scan, or by the atomic set and
// update instructions. The send path has one, and so does each receive
// queue, whose frames are ordered only among themselves.
type orderRing struct {
	q        int // receive queue, or -1 for the send path
	flagBase uint32
	bits     uint64
	flags    *mem.BitArray

	// frames holds the frames admitted and not yet committed, positions
	// [commitHead, seq), by position&mask. Commit is in order, so those
	// positions are contiguous, and every one holds a live frame record: the
	// array needs no more entries than its direction's frameTable.
	frames      []*frame
	mask        uint64
	seq         uint64 // frames admitted (the next frame's position)
	set         uint64 // flags set
	commitHead  uint64
	commitClaim bool
	pend        int // flag sets claimed, not yet done

	// What differs by direction: the ordering lock, the pool or notify lock
	// the reentrancy charge's lock rounds take, the hardware pointer a commit
	// publishes, the attribution bucket, and the reentrancy charges.
	ordLock, poolLock, hwPtr uint32
	acct                     int
	syncOrder, syncLock      *TaskCost
}

// init places the ring's flag array of bits flags at base and sizes its
// frame array for live frames: min(bits, live) rounded up to a power of
// two, which divides bits, so a flag position masks to its frame's entry.
func (r *orderRing) init(sp *mem.Scratchpad, base uint32, bits, live int) {
	r.flagBase, r.bits = base, uint64(bits)
	r.flags = mem.NewBitArray(sp, base, bits)
	n := 1
	for n < min(bits, live) {
		n <<= 1
	}
	r.frames, r.mask = make([]*frame, n), uint64(n-1)
}

// at returns the frame at position (or flag position) k.
func (r *orderRing) at(k uint64) *frame { return r.frames[k&r.mask] }

// index is the ring's position in Firmware.rings.
func (r *orderRing) index() int { return r.q + 1 }

// arg packs the ring's index with a flag position or frame count into a
// completion operand.
func (r *orderRing) arg(v uint64) uint32 { return uint32(r.index())<<queueShift | uint32(v) }

// word returns the address of the flag word holding position k.
func (r *orderRing) word(k uint64) uint32 { return r.flagBase + uint32(k%r.bits/32)*4 }

// admit gives fr the ring's next position. An occupied entry means more
// frames admitted and uncommitted than the frame array holds, and panics.
func (r *orderRing) admit(fr *frame) {
	e := &r.frames[r.seq&r.mask]
	if *e != nil {
		panic(fmt.Sprintf("firmware: ring %d admits position %d onto occupied entry %d", r.index(), r.seq, r.seq&r.mask))
	}
	fr.pos = r.seq
	*e = fr
	r.seq++
}

// rxQueue is one receive queue's independent pipeline: its own arrival and
// completion queues, BD credit, and ordering ring. A single-queue build has
// exactly one, whose flag array is the whole legacy FlagsRecv region — the
// seed pipeline, address for address.
type rxQueue struct {
	orderRing

	arrivedQ   fifo.Queue[*frame]
	bdCredit   int
	bdFetchOut int
	dmaDone    fifo.Queue[*frame]
	doneQ      fifo.Queue[*frame]
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

	txRing *slotRing
	rxRing *slotRing

	// Send pipeline.
	bdFetchOut  int
	txReserved  int
	prepQ       fifo.Queue[*frame]
	sendDMADone fifo.Queue[*frame]
	send        orderRing
	txDoneQ     fifo.Queue[*frame]

	// Receive pipeline: a global arrival counter (frame identity for
	// observation and conservation audits) plus one independent rxQueue per
	// RSS receive queue.
	recvSeq uint64
	rxq     []*rxQueue
	// Rotating queue cursors, one per receive claim kind, so multi-queue
	// claims visit queues fairly without any shared scan order.
	rxqCur [5]int
	// rings holds every ordering ring: the send ring, then each receive
	// queue's. Completion records name a ring by its index here.
	rings []*orderRing

	// Pipeline audit counters: frames in the claim→effect windows that the
	// queues and rings above do not cover. Together with them they account
	// for every in-flight frame, making the run invariants' conservation
	// audit exact at any instant (all transitions happen within single
	// callbacks).
	claimedSend int // popped from prepQ, frame DMA not yet programmed
	claimedRecv int // popped from rxArrivedQ, descriptor DMA not yet programmed
	dmaOutSend  int // frame-fetch DMAs in flight
	dmaOutRecv  int // descriptor-write DMAs in flight

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

	// The frame records, one fixed table per direction (see pool.go), the
	// batch records and their free list (see completion.go), and the frame
	// batch a claim builds its stream from.
	sendFrames  frameTable
	recvFrames  frameTable
	batches     []batch
	freeBatches []uint32
	scratch     []*frame

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
// buffer slots: the standard build passes 1530 bytes (a maximum frame plus
// slack, deliberately not 8-byte aligned), and jumbo-enabled builds pass a
// slot large enough for a jumbo frame.
func New(prof Profile, sp *mem.Scratchpad, hst *host.Host, as Assists, nCores int, slotBytes uint32) *Firmware {
	fw := &Firmware{
		Prof:   prof,
		sp:     sp,
		hst:    hst,
		as:     as,
		txRing: newSlotRing(0x000000, slotBytes, txSlots),
		rxRing: newSlotRing(0x800000, slotBytes, rxSlots),
		cont:   make([]fifo.Queue[*cpu.Stream], nCores),
		handed: make([]*cpu.Stream, nCores),
		nCores: nCores,

		sendFrames: newFrameTable("send", hst.SendRing()),
		recvFrames: newFrameTable("receive", rxSlots),
	}
	fw.send = orderRing{q: -1, ordLock: LockSendOrd, poolLock: LockHostNtfy, hwPtr: PtrMACTx, acct: AcctSendOrder,
		syncOrder: &fw.Prof.SyncOrderSend, syncLock: &fw.Prof.SyncLockSend}
	fw.send.init(sp, FlagsSend, FlagBits, hst.SendRing())
	fw.rings = append(fw.rings, &fw.send)
	// One receive pipeline per host receive queue. The status-flag region is
	// subdivided evenly: with one queue the subarray is the entire legacy
	// FlagsRecv array, so the seed build's flag addresses are unchanged.
	nq := hst.RxQueues()
	for q := 0; q < nq; q++ {
		rq := &rxQueue{orderRing: orderRing{q: q, ordLock: LockRecvOrdQ(q), poolLock: LockRxPoolQ(q), hwPtr: PtrDMAWrite, acct: AcctRecvOrder,
			syncOrder: &fw.Prof.SyncOrderRecv, syncLock: &fw.Prof.SyncLockRecv}}
		rq.init(sp, FlagsRecvQ(q, nq), RecvFlagBits(nq), rxSlots)
		fw.rxq = append(fw.rxq, rq)
		fw.rings = append(fw.rings, &rq.orderRing)
	}
	as.MACRx.Alloc = func(size int, handle any) (uint32, bool) {
		return fw.rxRing.alloc()
	}
	as.MACRx.OnReceive = func(buf uint32, size int, handle any, queue int) {
		rq := fw.rxq[queue]
		fr := fw.recvFrames.get()
		fr.f, fr.idx, fr.buf, fr.size = handle.(*host.Frame), fw.recvSeq, buf, uint16(size)
		fw.recvSeq++
		rq.admit(fr)
		rq.arrivedQ.Push(fr)
		fw.Obs.FrameStageQ(obs.Recv, obs.RecvBuffered, fr.idx, int(fr.entry), queue)
	}
	as.MACTx.OnTransmit = func(handle any) {
		fr := handle.(*frame)
		f := fr.f
		fr.f = nil
		fw.txDoneQ.Push(fr)
		fw.Obs.FrameStage(obs.Send, obs.SendWireDone, fr.idx, int(fr.entry))
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
		// Every ring's flags are scanned under its own ordering lock: the
		// send ring's, then each receive queue's share of the "synchronized,
		// looping memory accesses" the dispatch loop pays in software-only
		// mode.
		for _, r := range fw.rings {
			b.flagScan(r)
		}
	}
	return b.build("poll", codeDispatchBase, fw.Prof.CodeDispatch, AcctIdle, 0)
}

// flagScan appends one software-only poll check of ring r's flags: the two
// words at the commit head, read under the ring's ordering lock.
func (b *streamBuilder) flagScan(r *orderRing) {
	word := r.word(r.commitHead)
	b.lock(r.ordLock, 0)
	b.alu(3)
	b.load(word)
	b.alu(3)
	b.load(word + 4)
	b.alu(2)
	b.unlock(r.ordLock, 0)
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
	base := RegionSendBD + uint32(fw.send.seq%2048)*16
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
	frames := take(fw, &fw.prepQ, n, fw.batches[rb].frames)
	fw.batches[rb].frames = frames
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
	frames := take(fw, &fw.sendDMADone, n, fw.scratch)
	fw.scratch = frames
	fw.send.pend += n

	b := fw.builder()
	bases := b.list()
	for _, fr := range frames {
		bases = b.add(bases, RegionSendDesc+desc(fr.idx, DescStageDone))
	}
	b.cost2(fw.Prof.SendFrameDone.add(fw.Prof.ExtensionPerFrame).scale(float64(n)), walk(bases), walk(b.offset(bases, DescStageDoneStore-DescStageDone)))
	work := b.build("send-done", codeSendBase, fw.Prof.CodeSendFrame, AcctSendFrame, 0)

	ord := fw.orderingSetStream(&fw.send, frames)
	return fw.chain(coreID, fw.dispatchStream(AcctSendOrder), work, ord)
}

// claimSendCommit advances the send ring's commit point, handing its
// consecutive ready frames to the MAC.
func (fw *Firmware) claimSendCommit(coreID int) *cpu.Stream { return fw.claimCommit(&fw.send) }

// claimSendComplete handles transmit completions: frees buffer space and
// notifies the host — "Send Frame" part three.
func (fw *Firmware) claimSendComplete(coreID int) *cpu.Stream {
	if fw.txDoneQ.Len() == 0 {
		return nil
	}
	n := fw.batch(fw.txDoneQ.Len())
	rb := fw.newBatch()
	frames := take(fw, &fw.txDoneQ, n, fw.batches[rb].frames)
	fw.batches[rb].frames = frames

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
		frames := take(fw, &rq.arrivedQ, n, fw.batches[rb].frames)
		fw.batches[rb].q, fw.batches[rb].frames = rq.q, frames
		rq.bdCredit -= n
		fw.claimedRecv += n

		b := fw.builder()
		bases := b.list()
		for _, fr := range frames {
			bases = b.add(bases,
				rq.bdAddr(len(fw.rxq), fr.pos),
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
		frames := take(fw, &rq.dmaDone, n, fw.scratch)
		fw.scratch = frames
		rq.pend += n

		b := fw.builder()
		bases := b.list()
		for _, fr := range frames {
			bases = b.add(bases, RegionRecvDesc+desc(fr.idx, DescStageDone))
		}
		b.cost2(fw.Prof.RecvFrameDone.add(fw.Prof.ExtensionPerFrame).scale(float64(n)), walk(bases), walk(b.offset(bases, DescStageDoneStore-DescStageDone)))
		work := b.build("recv-done", codeRecvBase, fw.Prof.CodeRecvFrame, AcctRecvFrame, 0)

		ord := fw.orderingSetStream(&rq.orderRing, frames)
		return fw.chain(coreID, fw.dispatchStream(AcctRecvOrder), work, ord)
	})
}

// claimRecvCommit advances one queue's commit point, delivering that
// queue's consecutive frames to the host in its arrival order — the
// per-queue (not global) in-order invariant RSS relaxes to.
func (fw *Firmware) claimRecvCommit(coreID int) *cpu.Stream {
	return fw.eachRxQueue(3, func(rq *rxQueue) *cpu.Stream { return fw.claimCommit(&rq.orderRing) })
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
		frames := take(fw, &rq.doneQ, n, fw.batches[rb].frames)
		fw.batches[rb].frames = frames

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

// claimCommit advances ring r's in-order commit point over its consecutive
// ready frames — the dispatch-loop commit of the paper.
func (fw *Firmware) claimCommit(r *orderRing) *cpu.Stream {
	if r.commitClaim || r.set == r.commitHead {
		return nil
	}
	ready := consecutiveReady(r)
	if ready == 0 {
		return nil
	}
	r.commitClaim = true
	return fw.commitStream(r, ready)
}

// consecutiveReady counts ring r's consecutive set flags from its commit
// head, functionally (the timing cost is charged by the commit stream's
// ops).
func consecutiveReady(r *orderRing) int {
	n := uint64(0)
	for n < r.bits && r.flags.IsSet(int((r.commitHead+n)%r.bits)) {
		n++
	}
	return int(n)
}

// orderingSetStream builds the per-frame status-flag set segment for frames
// of ring r: the lock-protected read-modify-write sequence in software-only
// mode, or one atomic set instruction in RMW mode.
func (fw *Firmware) orderingSetStream(r *orderRing, frames []*frame) *cpu.Stream {
	n := len(frames)
	wordAddr := func(i int) uint32 { return r.word(frames[i].pos) }
	setFlag := func(i int) uint32 { return rec(doneSet, r.arg(frames[i].pos%r.bits)) }

	// Task-level parallel firmware never runs a handler on two cores at
	// once, so it pays no reentrancy synchronization (its handlers are not
	// reentrant; that is exactly what caps its scaling).
	extra := n * (fw.nCores - 1)
	if fw.Prof.Parallelism == TaskParallel {
		extra = 0
	}

	b := fw.builder()
	syncLock := *r.syncLock
	if fw.Prof.Ordering == SoftwareOnly {
		// The measured sw_set kernel, per frame: lock acquire (ll/bnez/
		// addiu/sc/beqz/nop emerge from OpLock), index arithmetic, word
		// read-modify-write, release. This per-frame synchronization is
		// exactly the overhead the paper's set instruction removes.
		for i := 0; i < n; i++ {
			b.lock(r.ordLock, 0)
			b.alu(3)
			b.load(wordAddr(i))
			b.alu(4)
			b.store(wordAddr(i))
			b.then(setFlag(i))
			b.unlock(r.ordLock, 0)
			b.alu(2)
		}
		// Reentrancy synchronization against every other active core's
		// concurrent handlers (removed entirely by the RMW instructions).
		b.cost(r.syncOrder.scale(float64(extra)), b.cycle(wordAddr(0), r.ordLock))
	} else {
		for i := 0; i < n; i++ {
			// setb: one atomic transaction, plus return linkage.
			b.rmw(wordAddr(i), setFlag(i))
			b.alu(2)
		}
		// The lock-based share of reentrancy synchronization remains under
		// either ordering implementation and is real locking work: acquire
		// and release rounds on the ring's pool/notify lock. Under RMW it
		// grows: "contention among the remaining firmware locks increases.
		// This problem is particularly troublesome for a lock in the receive
		// path."
		syncLock = syncLock.scale(1.5)
	}
	// Each uncontended round costs ~8 instructions (6-instruction acquire,
	// release store, linkage), so rounds approximate the budgeted share.
	rounds := extra * syncLock.Instr / 8
	for i := 0; i < rounds; i++ {
		b.lock(r.poolLock, 0)
		b.unlock(r.poolLock, 0)
	}
	return b.build("ordering-set", codeOrderBase, fw.Prof.CodeOrdering, r.acct, 0)
}

// commitStream builds the in-order commit of ring r: the software-only scan
// clears ready flags one lock-protected word access at a time; the RMW
// version is a single atomic update. Commit actions (handing frames to the
// MAC or to the host) run serialized inside the final memory transaction's
// completion.
func (fw *Firmware) commitStream(r *orderRing, ready int) *cpu.Stream {
	b := fw.builder()
	b.cost(fw.Prof.CommitPerEvent, b.cycle(fw.eventAddr(), r.hwPtr))
	head := r.commitHead
	if fw.Prof.Ordering == SoftwareOnly {
		b.lock(r.ordLock, 0)
		b.load(r.word(head)) // read head pointer word
		for i := 0; i < ready; i++ {
			// Scan iteration: index math, load word, test, clear, store.
			b.alu(3)
			b.load(r.word(head + uint64(i)))
			b.alu(4)
			b.store(r.word(head + uint64(i)))
		}
		// Terminating iteration (bit clear) plus head and pointer stores.
		b.alu(6)
		b.store(r.hwPtr)
		b.then(rec(doneCommit, r.arg(uint64(ready))))
		b.unlock(r.ordLock, 0)
		b.alu(2)
	} else {
		// upd: one atomic transaction bounded to a single word; commit what
		// it actually cleared, then publish the hardware pointer.
		b.rmw(r.word(head), rec(doneUpdate, r.arg(0)))
		b.alu(2)
		b.store(r.hwPtr)
		b.alu(2)
	}
	return b.build("commit", codeOrderBase, fw.Prof.CodeOrdering, r.acct, rec(doneEndCommit, r.arg(0)))
}

// commit clears up to n flags of ring r through its bit array (software
// scan semantics) and applies the commit actions.
func (fw *Firmware) commit(r *orderRing, n int) {
	cleared := 0
	for cleared < n {
		_, k := r.flags.Update()
		if k == 0 {
			break
		}
		cleared += k
	}
	fw.commitCleared(r, cleared)
}

// commitCleared hands ring r's k consecutive frames past the commit head to
// the next stage, in order: sent frames to the MAC, a receive queue's frames
// to the host.
func (fw *Firmware) commitCleared(r *orderRing, k int) {
	for i := 0; i < k; i++ {
		e := &r.frames[r.commitHead&r.mask]
		fr := *e
		if fr == nil {
			panic(fmt.Sprintf("firmware: committing absent frame %d on ring %d", r.commitHead, r.index()))
		}
		*e = nil
		r.commitHead++
		if r.q < 0 {
			fw.TxCommitted.Inc()
			fw.as.MACTx.Send(fr.buf, fr.f.Size, fr)
			fw.Obs.FrameStage(obs.Send, obs.SendCommitted, fr.idx, int(fr.entry))
			continue
		}
		fw.RxDelivered.Inc()
		fw.hst.DeliverFrame(fr.f, r.q)
		fr.f = nil
		fw.rxq[r.q].doneQ.Push(fr)
		fw.Obs.FrameStageQ(obs.Recv, obs.RecvDelivered, fr.idx, int(fr.entry), r.q)
	}
}
