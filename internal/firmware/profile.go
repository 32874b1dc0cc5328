// Package firmware models the NIC's event-driven, frame-level parallel
// firmware: the event dispatch loop, the per-frame processing handlers
// (fetch send BD, send frame, fetch receive BD, receive frame), and the two
// frame-ordering implementations the paper compares — lock-based software
// ordering and the atomic set/update RMW instructions.
//
// Handlers execute on the cpu cores as operation streams whose instruction
// and memory-access budgets come from two sources: the ideal per-task costs
// reconstructed from the paper's prose (229/206 MIPS and 2.6/2.2 Gb/s at
// 812,744 frames/s give 282/253 instructions and 100/85 accesses per frame),
// and the ordering-kernel costs measured by executing real assembly on the
// ISA interpreter (package fwkernels). Lock contention is not a constant: it
// emerges from cores spinning on real lock words through the crossbar.
package firmware

import (
	"sync"

	"repro/internal/cpu"
	"repro/internal/fwkernels"
	"repro/internal/sim"
)

// Scratchpad memory map (byte addresses). Word interleaving spreads each
// region across all banks; distinct locks land in distinct banks. Per-frame
// state is wide (512 B across the processing stages) and the rings are long,
// so metadata accesses are dominated by first touches — the paper's finding
// that "there is little locality in network interface firmware".
const (
	RegionEvents   = 0x00000 // event structures, 32 B each (512-entry ring)
	RegionSendBD   = 0x04000 // fetched send BDs, 16 B each (2048-entry ring)
	RegionRecvBD   = 0x0c000 // fetched receive BDs
	RegionSendDesc = 0x14000 // per-frame send state, 512 B each (160-entry ring)
	RegionRecvDesc = 0x28000 // per-frame receive state
	RegionFlags    = 0x3c000 // status bit arrays
	RegionLocks    = 0x3d000 // lock words
	RegionPtrs     = 0x3e000 // hardware progress pointers and mailboxes
)

// Per-frame descriptor geometry: each in-flight frame owns a 512-byte state
// entry, subdivided per processing stage so different cores write disjoint
// lines as the frame migrates between handlers.
const (
	DescStride             = 512
	DescEntries            = 160 // 80 KB ring per direction
	DescStagePrep          = 0
	DescStageDone          = 160
	DescStageDoneStore     = 224
	DescStageComplete      = 320
	DescStageCompleteStore = 384
	DescDMA                = 480
)

// Lock word addresses. Consecutive words interleave across banks.
const (
	LockSendBD   = RegionLocks + 0x00
	LockRecvBD   = RegionLocks + 0x04
	LockTxAlloc  = RegionLocks + 0x08
	LockRxPool   = RegionLocks + 0x0c
	LockSendOrd  = RegionLocks + 0x10
	LockRecvOrd  = RegionLocks + 0x14
	LockEventQ   = RegionLocks + 0x18
	LockHostNtfy = RegionLocks + 0x1c
)

// Hardware pointer addresses polled by the dispatch loop.
const (
	PtrMailbox    = RegionPtrs + 0x00
	PtrDMARead    = RegionPtrs + 0x04
	PtrDMAWrite   = RegionPtrs + 0x08
	PtrMACTx      = RegionPtrs + 0x0c
	PtrMACRx      = RegionPtrs + 0x10
	PtrRecvBDPool = RegionPtrs + 0x14
)

// Flag array bases. Each array holds FlagBits bits (512 bytes).
const (
	FlagsSend = RegionFlags + 0x000
	FlagsRecv = RegionFlags + 0x200
)

// FlagBits is the size of each status bit array; it must cover every frame
// in flight.
const FlagBits = 4096

// The SDRAM frame buffer rings hold txSlots transmit and rxSlots receive
// frames.
const (
	txSlots = 512
	rxSlots = 512
)

// MaxRxQueues bounds the RSS receive-queue count. Per-queue status-flag
// arrays subdivide the fixed FlagsRecv region evenly, so the count must be
// a power of two. A single flow steers every frame to one queue, so each
// queue's flags must cover every receive buffer slot: 8 queues leave
// FlagBits/8 = rxSlots flags per queue.
const MaxRxQueues = FlagBits / rxSlots

// RecvFlagBits returns the per-queue status-flag capacity with nq receive
// queues: FlagBits with one queue (the whole legacy array), FlagBits/nq
// otherwise.
func RecvFlagBits(nq int) int { return FlagBits / nq }

// FlagsRecvQ returns the base address of receive queue q's status-flag
// subarray within the FlagsRecv region. Queue 0 of a single-queue build is
// the legacy FlagsRecv array itself.
func FlagsRecvQ(q, nq int) uint32 {
	return FlagsRecv + uint32(q)*uint32(FlagBits/nq/8)
}

// Per-queue receive lock words. Queue 0 uses the legacy words — a
// single-queue build touches exactly the seed addresses — and each
// additional queue gets its own trio at RegionLocks+0x40 onward, so queues
// never contend on one another's receive locks.

// LockRecvBDQ returns queue q's receive-BD fetch lock.
func LockRecvBDQ(q int) uint32 {
	if q == 0 {
		return LockRecvBD
	}
	return RegionLocks + 0x40 + uint32(q-1)*12
}

// LockRxPoolQ returns queue q's receive-pool lock.
func LockRxPoolQ(q int) uint32 {
	if q == 0 {
		return LockRxPool
	}
	return RegionLocks + 0x40 + uint32(q-1)*12 + 4
}

// LockRecvOrdQ returns queue q's receive-ordering lock.
func LockRecvOrdQ(q int) uint32 {
	if q == 0 {
		return LockRecvOrd
	}
	return RegionLocks + 0x40 + uint32(q-1)*12 + 8
}

// PtrRecvBDPoolQ returns queue q's receive-pool progress pointer.
func PtrRecvBDPoolQ(q int) uint32 {
	if q == 0 {
		return PtrRecvBDPool
	}
	return RegionPtrs + 0x20 + uint32(q-1)*4
}

// IsFrameMetadata reports whether a scratchpad address holds frame metadata
// (buffer descriptors, per-frame state, event structures) as opposed to
// synchronization state (locks, status-flag arrays) or hardware registers
// (progress pointers). The paper's Figure 3 coherence traces "were filtered
// to include only frame metadata".
func IsFrameMetadata(addr uint32) bool {
	return addr < RegionFlags
}

// Ordering selects the frame-ordering implementation.
type Ordering int

// Ordering implementations.
const (
	// SoftwareOnly uses lock-protected load/store sequences to set status
	// flags and scan for committable runs.
	SoftwareOnly Ordering = iota
	// RMWEnhanced uses the paper's atomic set and update instructions.
	RMWEnhanced
)

// String names the ordering mode as the paper does.
func (o Ordering) String() string {
	if o == RMWEnhanced {
		return "RMW-enhanced"
	}
	return "Software-only"
}

// Parallelism selects the firmware organization.
type Parallelism int

// Firmware organizations.
const (
	// FrameParallel is the paper's contribution: a distributed event queue
	// in which any core processes any pending work unit.
	FrameParallel Parallelism = iota
	// TaskParallel is the Tigon-II event-register baseline: at most one core
	// runs a given event type at a time (paper Figure 4).
	TaskParallel
)

// String names the organization.
func (p Parallelism) String() string {
	if p == TaskParallel {
		return "task-parallel"
	}
	return "frame-parallel"
}

// TaskCost is an operation budget: Instr total instructions of which Loads
// are scratchpad reads and Stores scratchpad writes (the rest are ALU and
// branch work).
type TaskCost struct {
	Instr  int
	Loads  int
	Stores int
}

// scale multiplies a cost by f, rounding to nearest.
func (c TaskCost) scale(f float64) TaskCost {
	return TaskCost{
		Instr:  int(float64(c.Instr)*f + 0.5),
		Loads:  int(float64(c.Loads)*f + 0.5),
		Stores: int(float64(c.Stores)*f + 0.5),
	}
}

// add sums two costs.
func (c TaskCost) add(o TaskCost) TaskCost {
	return TaskCost{c.Instr + o.Instr, c.Loads + o.Loads, c.Stores + o.Stores}
}

// Accesses returns loads+stores.
func (c TaskCost) Accesses() int { return c.Loads + c.Stores }

// Profile is the full per-task cost model of one firmware build.
type Profile struct {
	// Ideal task costs (Table 1). Batch costs cover one descriptor-fetch
	// DMA: 32 send BDs (16 frames) or 16 receive BDs (16 frames).
	FetchSendBDBatch  TaskCost // per batch of 32 send BDs
	SendFramePrep     TaskCost // per frame: read BDs, allocate, program DMA
	SendFrameDone     TaskCost // per frame: DMA completion processing
	SendFrameComplete TaskCost // per frame: transmit completion, host notify
	FetchRecvBDBatch  TaskCost // per batch of 16 receive BDs
	RecvFramePrep     TaskCost // per frame: buffer match, program DMA + descriptor
	RecvFrameDone     TaskCost // per frame: DMA completion processing
	RecvFrameComplete TaskCost // per frame: commit bookkeeping

	// Parallelization overheads (Table 5 rows "Dispatch and Ordering" and
	// "Locking").
	DispatchPerEvent TaskCost // build one event structure and claim it
	PollPass         TaskCost // one pass over the hardware pointers
	CommitPerEvent   TaskCost // commit-scan fixed cost (excluding ordering ops)

	// Reentrancy/synchronization overhead of the frame-level parallel
	// firmware, charged per frame for each additional active core. The
	// paper's firmware applies "synchronization to all data shared between
	// different tasks"; its measured per-frame instruction count grows
	// roughly 35% from one to six cores (derivable from the 800 MHz
	// single-core operating point against Table 3's six-core 0.72 IPC at
	// line rate). SyncOrder is the share the atomic set/update instructions
	// eliminate; SyncLock is the share that remains lock-based under RMW.
	SyncOrderSend TaskCost // per frame per extra core, send direction
	SyncLockSend  TaskCost
	SyncOrderRecv TaskCost
	SyncLockRecv  TaskCost

	// ExtensionPerFrame is extra per-frame processing layered onto the
	// frame handlers, modeling the extended services the paper motivates
	// programmability with (TCP offload, iSCSI, NIC-side caching,
	// intrusion detection). Zero in every baseline configuration.
	ExtensionPerFrame TaskCost

	// Ordering-kernel costs measured on the interpreter.
	Kernels fwkernels.Results

	Ordering    Ordering
	Parallelism Parallelism

	// EventBatch bounds frames per event.
	EventBatch int

	// HazardFrac is the fraction of instructions followed by a one-cycle
	// pipeline hazard (statically mispredicted branches and load-use
	// bubbles), calibrated to the paper's 0.10 IPC loss.
	HazardFrac float64

	// Code footprints (bytes) per handler, for instruction-cache behavior.
	// The firmware's total footprint is small (the paper: instruction
	// misses cost only 0.01 IPC even though tasks migrate between cores).
	CodeDispatch  uint32
	CodeFetchBD   uint32
	CodeSendFrame uint32
	CodeRecvFrame uint32
	CodeOrdering  uint32
}

// SendBDsPerBatch and RecvBDsPerBatch are the descriptor-fetch DMA batch
// sizes from the paper (32 and 16 descriptors; a sent frame takes two
// descriptors, a receive buffer one).
const (
	SendBDsPerBatch = 32
	RecvBDsPerBatch = 16
	SendBDWords     = 4 // 16-byte descriptors
	RecvBDWords     = 4
	FramesPerSendBD = SendBDsPerBatch / 2
)

// measuredKernels runs the ordering kernels on the interpreter once per
// process. Measurement is deterministic, so every build shares one result;
// sync.OnceValue makes the first call safe to race from sweep workers.
var measuredKernels = sync.OnceValue(func() fwkernels.Results { return fwkernels.MustMeasure(64, 8) })

// DefaultProfile returns the calibrated firmware cost model for the given
// frame ordering: the one every core.Config build runs.
func DefaultProfile(ord Ordering) Profile {
	p := Profile{
		// Ideal send path: 282 instructions, 100 accesses per frame.
		FetchSendBDBatch:  TaskCost{224, 24, 62}, // 14 instr, 6 accesses per frame
		SendFramePrep:     TaskCost{150, 24, 21}, // incl. reading 2 BDs (8 words)
		SendFrameDone:     TaskCost{60, 9, 8},    //
		SendFrameComplete: TaskCost{58, 9, 7},    // total 282/100 per frame
		// Ideal receive path: 253 instructions, 85 accesses per frame.
		FetchRecvBDBatch:  TaskCost{160, 18, 40}, // 10 instr, 4 accesses per frame
		RecvFramePrep:     TaskCost{140, 21, 19}, //
		RecvFrameDone:     TaskCost{55, 8, 7},    //
		RecvFrameComplete: TaskCost{48, 7, 8},    // total 253/85 per frame

		// Frame-level parallelism "requires some additional overhead to
		// build event data structures": inspecting several hardware
		// pointers, allocating and filling the event structure, and
		// inserting it into the shared queue. This fixed per-event cost is
		// what fragments across many cores (smaller batches per event) and
		// amortizes on few cores (larger batches).
		DispatchPerEvent: TaskCost{140, 30, 24},
		PollPass:         TaskCost{12, 3, 0},
		CommitPerEvent:   TaskCost{48, 12, 8},

		SyncOrderSend: TaskCost{24, 7, 5},
		SyncLockSend:  TaskCost{7, 2, 2},
		SyncOrderRecv: TaskCost{7, 2, 1},
		SyncLockRecv:  TaskCost{16, 5, 4},

		Kernels:     measuredKernels(),
		Ordering:    ord,
		Parallelism: FrameParallel,
		EventBatch:  16,
		HazardFrac:  0.28,

		CodeDispatch:  1024,
		CodeFetchBD:   1024,
		CodeSendFrame: 2816,
		CodeRecvFrame: 2816,
		CodeOrdering:  1024,
	}
	return p
}

// streamBuilder assembles op streams with evenly interleaved memory
// operations and deterministic pseudo-random addresses within a region. Its
// op buffer, stream and address scratch come from a streamPool, so building
// allocates nothing once the pool is warm. One builder is in use at a time.
type streamBuilder struct {
	pool  *streamPool
	owner sim.Completer // receives the stream's completion records
	s     *cpu.Stream   // recycled stream that owns ops, or nil
	ops   []cpu.Op
	addrs []uint32 // address-generator scratch, valid until build
	seed  int64
	hf    float64
	draw  int // hazard draws consumed so far
}

func newBuilder(pool *streamPool, seed int64, hazardFrac float64) streamBuilder {
	return streamBuilder{pool: pool, addrs: pool.addrs[:0], seed: seed, hf: hazardFrac}
}

// reserve makes room for n more ops. When the buffer is full, the ops built
// so far move to the best-fitting recycled buffer, or to a fresh one with
// some slack for the ops that usually follow (and at least reserveMin), and
// the outgrown buffer goes back to the pool, a fresh one in a stream of its
// own.
func (b *streamBuilder) reserve(n int) {
	need := len(b.ops) + n
	if need <= cap(b.ops) {
		return
	}
	want := max(need+min(need, reserveSlack), reserveMin)
	s := b.pool.get(need, want)
	var buf []cpu.Op
	if s != nil {
		buf = s.Ops
	} else {
		buf = make([]cpu.Op, 0, want)
	}
	buf = append(buf, b.ops...)
	if b.s == nil && cap(b.ops) > 0 {
		b.s = new(cpu.Stream)
	}
	if b.s != nil {
		b.s.Ops = b.ops
		b.pool.put(b.s)
	}
	b.s, b.ops = s, buf
}

// push appends one op.
func (b *streamBuilder) push(op cpu.Op) {
	b.reserve(1)
	b.ops = append(b.ops, op)
}

// addrGen produces the address of the i-th memory access of a cost block:
// it cycles through its bases, advancing one word per full cycle. A cycling
// generator wraps the advance after 8 words; a walking one (wrap 0) does not
// wrap — mostly single-touch accesses, the dominant pattern in NIC frame
// metadata ("there is little locality in network interface firmware").
type addrGen struct {
	bases []uint32
	wrap  int
}

func (g addrGen) at(i int) uint32 {
	n := len(g.bases)
	step := i / n
	if g.wrap > 0 {
		step %= g.wrap
	}
	return g.bases[i%n] + uint32(step)*4
}

// walk returns a walking generator over bases.
func walk(bases []uint32) addrGen { return addrGen{bases: bases} }

// cycle returns a cycling generator over the given word bases.
func (b *streamBuilder) cycle(bases ...uint32) addrGen {
	return addrGen{bases: b.list(bases...), wrap: 8}
}

// list copies addresses into the builder's scratch and returns the copy;
// add extends the most recent list.
func (b *streamBuilder) list(vs ...uint32) []uint32 {
	return b.add(nil, vs...)
}

func (b *streamBuilder) add(list []uint32, vs ...uint32) []uint32 {
	start := len(b.addrs) - len(list)
	b.addrs = append(b.addrs, vs...)
	return b.addrs[start:len(b.addrs):len(b.addrs)]
}

// odd returns a list of the odd-index bases (the writable per-frame
// descriptors from interleaved BD/descriptor base lists).
func (b *streamBuilder) odd(bases []uint32) []uint32 {
	start := len(b.addrs)
	for i := 1; i < len(bases); i += 2 {
		b.addrs = append(b.addrs, bases[i])
	}
	return b.addrs[start:len(b.addrs):len(b.addrs)]
}

// offset returns a list of the bases shifted by off bytes (stage-private
// store sub-blocks).
func (b *streamBuilder) offset(bases []uint32, off uint32) []uint32 {
	start := len(b.addrs)
	for _, a := range bases {
		b.addrs = append(b.addrs, a+off)
	}
	return b.addrs[start:len(b.addrs):len(b.addrs)]
}

// hazard returns the stream's next hazard draw, a pure function of the
// stream seed and the draw index: the splitmix64 finalizer mixes the pair
// into 64 uniform bits, whose top 53 form a fraction in [0, 1). Seeds count
// up from 1 per firmware, so two streams of a run share draws only after
// 2^32 streams, or in a stream of 2^32 draws.
func (b *streamBuilder) hazard() bool {
	z := uint64(b.seed)<<32 ^ uint64(b.draw)
	b.draw++
	z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
	z = (z ^ z>>27) * 0x94d049bb133111eb
	z ^= z >> 31
	return float64(z>>11)*0x1p-53 < b.hf
}

// cost appends a TaskCost worth of work: c.Instr instructions with the
// memory accesses spread evenly through the ALU work and loads/stores mixed
// proportionally. g supplies the address for the i-th memory access.
func (b *streamBuilder) cost(c TaskCost, g addrGen) { b.emit(c, g, g, false) }

// cost2 is cost with separate address generators for loads and stores, so
// read-only structures (fetched descriptors) are never written by cores: the
// i-th load takes loads.at(i) and the i-th store stores.at(i).
func (b *streamBuilder) cost2(c TaskCost, loads, stores addrGen) { b.emit(c, loads, stores, true) }

func (b *streamBuilder) emit(c TaskCost, loads, stores addrGen, split bool) {
	mem := c.Loads + c.Stores
	total := c.Instr
	if total < mem {
		total = mem
	}
	b.reserve(total)
	memDone := 0
	loadsLeft, storesLeft := c.Loads, c.Stores
	loadAcc := 0
	for n := 0; n < total; n++ {
		if mem > 0 && memDone*total < mem*(n+1) {
			loadAcc += c.Loads
			if storesLeft == 0 || (loadsLeft > 0 && loadAcc >= mem) {
				loadAcc -= mem
				i := memDone
				if split {
					i = c.Loads - loadsLeft
				}
				b.load(loads.at(i))
				loadsLeft--
			} else {
				i := memDone
				if split {
					i = c.Stores - storesLeft
				}
				b.store(stores.at(i))
				storesLeft--
			}
			memDone++
			continue
		}
		op := cpu.Op{Kind: cpu.OpALU}
		if b.hazard() {
			op.Hazard = 1
		}
		b.push(op)
	}
}

// alu appends n plain ALU ops.
func (b *streamBuilder) alu(n int) {
	b.reserve(n)
	for i := 0; i < n; i++ {
		b.ops = append(b.ops, cpu.Op{Kind: cpu.OpALU})
	}
}

// load appends one load.
func (b *streamBuilder) load(addr uint32) {
	b.push(cpu.Op{Kind: cpu.OpLoad, Addr: addr})
}

// store appends one store.
func (b *streamBuilder) store(addr uint32) {
	b.push(cpu.Op{Kind: cpu.OpStore, Addr: addr})
}

// lock appends a spinlock acquire; done (zero: none) is the completion
// record delivered at the acquire.
func (b *streamBuilder) lock(addr uint32, done uint32) {
	b.push(cpu.Op{Kind: cpu.OpLock, Addr: addr, Done: done})
}

// unlock appends a lock release.
func (b *streamBuilder) unlock(addr uint32, done uint32) {
	b.push(cpu.Op{Kind: cpu.OpUnlock, Addr: addr, Done: done})
}

// rmw appends one atomic set/update transaction.
func (b *streamBuilder) rmw(addr uint32, done uint32) {
	b.push(cpu.Op{Kind: cpu.OpRMW, Addr: addr, Done: done})
}

// then attaches a zero-cost completion record to the last op, which must not
// carry one yet.
func (b *streamBuilder) then(done uint32) {
	if len(b.ops) == 0 {
		b.push(cpu.Op{Kind: cpu.OpALU})
	}
	last := &b.ops[len(b.ops)-1]
	if last.Done != 0 {
		panic("firmware: op already carries a completion record")
	}
	last.Done = done
}

// build finalizes the stream, reusing the recycled stream that owns the ops
// when there is one, and hands the address scratch back to the pool. done
// (zero: none) is the record delivered when the stream completes.
func (b *streamBuilder) build(name string, codeBase, codeLen uint32, acct int, done uint32) *cpu.Stream {
	s := b.s
	if s == nil {
		s = new(cpu.Stream)
	}
	*s = cpu.Stream{
		Name: name, CodeBase: codeBase, CodeLen: codeLen,
		Ops: b.ops, AcctID: acct, Owner: b.owner, Done: done,
	}
	b.pool.addrs = b.addrs[:0]
	return s
}
