// Package cpu models the NIC's processing cores: single-issue, five-stage,
// in-order pipelines with a one-entry store buffer, private instruction
// caches, and scratchpad access through the shared crossbar.
//
// The core is a timing model. It executes operation streams produced by the
// firmware layer: each Op is one dynamic instruction, tagged with its memory
// behavior (scratchpad load/store, atomic RMW, spinlock acquire/release) and
// pipeline hazards. Functional state that several cores race on (lock words,
// status-flag arrays, hardware pointers) lives in the scratchpad and is
// manipulated when the corresponding memory transaction completes, so races
// resolve exactly as the crossbar serializes them.
//
// Stall attribution follows the paper's Table 3: instruction-cache miss
// stalls, load stalls (the mandatory extra cycle of a two-cycle scratchpad
// load), scratchpad conflict stalls (crossbar arbitration and store-buffer
// structural waits), and pipeline stalls (hazards such as statically
// mispredicted branches, plus lock-spin branches).
package cpu

import (
	"fmt"

	"repro/internal/mem"
	"repro/internal/sim"
	"repro/internal/trace"
)

// OpKind classifies one dynamic instruction in a stream.
type OpKind uint8

// Operation kinds.
const (
	OpALU    OpKind = iota
	OpLoad          // scratchpad read
	OpStore         // scratchpad write (buffered; does not stall)
	OpRMW           // atomic set/update: one scratchpad transaction
	OpLock          // spin until the lock word at Addr is acquired
	OpUnlock        // release the lock word at Addr
)

// Op is one dynamic instruction. It packs into 12 bytes; streams hold
// hundreds of them.
type Op struct {
	// Addr is the scratchpad byte address for memory operations. Stores
	// must not target lock words or flag arrays; those are owned by
	// OpLock/OpUnlock and OpRMW.
	Addr uint32
	// Done, if nonzero, is the completion record the stream's Owner
	// receives when the operation's memory transaction completes
	// (immediately after execution for OpALU, at the acquire for OpLock);
	// firmware uses it to apply functional side effects at the
	// timing-correct instant.
	Done uint32
	Kind OpKind
	// Hazard adds pipeline stall cycles after this instruction (statically
	// mispredicted branch annulment and similar unavoidable bubbles).
	Hazard uint8
}

// A Stream is a handler invocation: a code region (for instruction-cache
// behavior) plus the dynamic operations.
//
// The supplier of a stream (Core.NextWork) owns it and may reuse its memory,
// Ops included, once the core is done with it: after the stream completes
// (its Done is delivered) or is evicted by Preempt, whose remainder shares the
// evicted stream's Ops. The core, Preempt's remainder and observers
// (OnStreamBegin/OnStreamEnd) therefore must not retain a stream, or a
// pointer into its Ops, beyond that point.
type Stream struct {
	Name     string
	CodeBase uint32
	CodeLen  uint32 // bytes; the PC walks the region sequentially, wrapping
	Ops      []Op
	// AcctID attributes this stream's cycles to a per-function bucket
	// (Table 6); negative means unattributed. A core panics on a stream
	// whose AcctID is past its last bucket.
	AcctID int
	// Owner receives the stream's completion records: each op's Done and,
	// once the final operation has completed, the stream's own Done (zero:
	// none). It may be nil when no record is set.
	Owner sim.Completer
	Done  uint32
}

// Stats aggregates a core's cycle accounting.
type Stats struct {
	Cycles         uint64
	Instructions   uint64
	IMissStalls    uint64
	LoadStalls     uint64
	ConflictStalls uint64
	PipelineStalls uint64
	IdleCycles     uint64
	FaultStalls    uint64 // cycles vetoed by the fault gate (stuck/slowed)
	SpinLoads      uint64 // lock-spin ll's issued (contention indicator)
	Loads          uint64
	Stores         uint64
	RMWs           uint64
}

// IPC returns retired instructions per cycle.
func (s Stats) IPC() float64 {
	if s.Cycles == 0 {
		return 0
	}
	return float64(s.Instructions) / float64(s.Cycles)
}

// Add accumulates other into s.
func (s *Stats) Add(o Stats) {
	s.Cycles += o.Cycles
	s.Instructions += o.Instructions
	s.IMissStalls += o.IMissStalls
	s.LoadStalls += o.LoadStalls
	s.ConflictStalls += o.ConflictStalls
	s.PipelineStalls += o.PipelineStalls
	s.IdleCycles += o.IdleCycles
	s.FaultStalls += o.FaultStalls
	s.SpinLoads += o.SpinLoads
	s.Loads += o.Loads
	s.Stores += o.Stores
	s.RMWs += o.RMWs
}

type coreState uint8

const (
	stFetch    coreState = iota // next op needs an icache lookup
	stWaitFill                  // stalled on instruction fill
	stWaitMem                   // stalled on a load/RMW/lock transaction
	stHazard                    // burning pipeline hazard cycles
	stPlain                     // retiring non-memory lock-sequence instructions
)

// lock microsequence phases
const (
	lkNone    = 0
	lkLL      = 1 // ll outstanding
	lkBranch  = 2 // ll returned free; retire bnez + delay slot, then sc
	lkSC      = 3 // sc outstanding
	lkCheck   = 4 // sc returned; retire beqz (+nop on success)
	lkBackoff = 5 // spinning a short delay loop before retrying the ll
)

// spinBackoff is the delay-loop length after observing a held lock; it keeps
// spinning cores from saturating the lock word's scratchpad bank.
const spinBackoff = 6

// Core is one processing core.
type Core struct {
	ID int

	sp     *mem.Scratchpad
	xbar   *mem.Crossbar
	port   int
	icache *mem.ICache
	imem   *mem.InstrMemory

	// NextWork supplies the next handler invocation when the core is idle;
	// nil result means idle this cycle. The firmware layer installs it. The
	// core calls it only when its previous stream has completed or been
	// preempted, so the supplier may recycle that stream on the call (see
	// Stream); a wrapper must not hold on to the streams it passes through.
	NextWork func() *Stream
	gate     func(cycle uint64) bool // see SetGate

	// The state a cycle reads, kept together. acct and lockOp cache the
	// current op's attribution whenever cur or opIdx changes: acct is the
	// stream's bucket or -1, lockOp whether the op is part of a lock
	// sequence (OpLock or OpUnlock).
	cur       *Stream
	opIdx     int
	pcOff     uint32
	acct      int
	lockOp    bool
	state     coreState
	hazardCtr uint8
	plainCtr  uint8
	memDone   bool
	fillDone  bool
	replaying bool // a completion's wake is replaying the wait's stalls
	firstWait bool // distinguishes the mandatory load-stall cycle
	lockPhase int
	lockVal   uint32

	// TraceMem, when set, observes every completed scratchpad transaction
	// (for the Figure 3 coherence traces).
	TraceMem func(trace.MemRef)
	// OnStreamBegin/OnStreamEnd, when set, observe stream occupancy: begin
	// fires when the core picks a stream up, end when the stream completes on
	// this core or is evicted by Preempt (the rescuing core begins it again).
	// Observers must not mutate or retain the stream.
	OnStreamBegin func(*Stream)
	OnStreamEnd   func(*Stream)

	// One crossbar transaction is outstanding per core at a time (waiting
	// ops stall the pipeline; buffered stores block the next issue via the
	// port-busy check), so the completion callback is a single pre-bound
	// closure dispatching on xcb — not a fresh allocation per memory op.
	// xcbOwner and xcbDone are the op's completion record, kept because
	// Preempt may evict the stream before the transaction completes.
	xcb      xbarCb
	xcbAddr  uint32
	xcbDone  uint32
	xcbOwner sim.Completer
	xbarDone func()
	onFill   func() // pre-bound instruction-fill completion
	wake     func() // the clock domain's wake function (sim.Sleeper)

	// Per-bucket attribution, indexed by Stream.AcctID: total cycles,
	// retired instructions, scratchpad accesses, and the lock-sequence
	// subsets of cycles and instructions (the paper's Table 5 and Table 6
	// "Locking" rows).
	FuncCycles     []uint64
	FuncInstr      []uint64
	FuncMem        []uint64
	FuncLockCycles []uint64
	FuncLockInstr  []uint64

	Stats Stats
}

// New creates a core attached to the shared memory system. funcBuckets sizes
// the per-function cycle attribution table.
func New(id int, sp *mem.Scratchpad, xbar *mem.Crossbar, port int, icache *mem.ICache, imem *mem.InstrMemory, funcBuckets int) *Core {
	c := &Core{
		ID: id, sp: sp, xbar: xbar, port: port, icache: icache, imem: imem,
		FuncCycles:     make([]uint64, funcBuckets),
		FuncInstr:      make([]uint64, funcBuckets),
		FuncMem:        make([]uint64, funcBuckets),
		FuncLockCycles: make([]uint64, funcBuckets),
		FuncLockInstr:  make([]uint64, funcBuckets),
		acct:           -1,
	}
	c.xbarDone = c.onXbarDone
	c.onFill = func() {
		c.woken()
		c.fillDone = true
	}
	return c
}

// xbarCb tags the kind of crossbar transaction the core has outstanding, for
// the shared completion callback.
type xbarCb uint8

const (
	cbLoad xbarCb = iota
	cbRMW
	cbStore
	cbLL
	cbUnlock
	cbSC
)

// onXbarDone is the completion callback for every core-issued crossbar
// transaction; it reproduces exactly what the former per-op closures did,
// using the transaction state recorded at submit time.
func (c *Core) onXbarDone() {
	addr, owner, done := c.xcbAddr, c.xcbOwner, c.xcbDone
	c.xcbOwner, c.xcbDone = nil, 0
	switch c.xcb {
	case cbLoad, cbRMW:
		// An RMW is one atomic transaction; its functional flag update is
		// carried by Done against quiet bit-array state. Neither uses the
		// word, so the access is only counted.
		c.sp.CountRead(addr)
		c.memDone = true
	case cbStore:
		// The store's functional payload (if any) is carried by Done;
		// the word itself is not clobbered, since status flags share words
		// with generic store traffic.
		c.sp.CountWrite(addr)
	case cbLL:
		c.lockVal = c.sp.Read32(addr)
		c.memDone = true
	case cbUnlock:
		c.sp.Write32(addr, 0)
	case cbSC:
		// Atomic at completion: the crossbar delivers one transaction per
		// bank per cycle, so concurrent sc's serialize here.
		if c.sp.Read32(addr) == 0 {
			c.sp.Write32(addr, 1)
			c.lockVal = 1 // success
		} else {
			c.lockVal = 0 // failure
		}
		c.memDone = true
	}
	if c.TraceMem != nil {
		c.TraceMem(trace.MemRef{Proc: c.ID, Addr: addr, Write: c.xcb != cbLoad && c.xcb != cbLL})
	}
	if done != 0 {
		owner.Complete(done)
	}
	switch {
	case c.xcb != cbStore && c.xcb != cbUnlock:
		// The core waits on this transaction: the ticks the wake replays
		// were stalls, and the domain asks Sleep again with memDone set.
		c.replaying = true
		c.woken()
		c.replaying = false
	case c.portBlocked():
		c.woken() // the store kept the port busy for the next issue
	}
}

// submit records the outstanding transaction, with the completion record
// done (zero: none), and hands the shared callback to the crossbar.
func (c *Core) submit(kind xbarCb, addr uint32, write bool, done uint32) {
	c.xcb = kind
	c.xcbAddr = addr
	c.xcbDone = done
	if done != 0 {
		c.xcbOwner = c.cur.Owner
	}
	c.xbar.Submit(c.port, c.sp.Bank(addr), write, c.xbarDone)
}

// complete delivers the current stream's completion record done, if any.
//
//nic:hotpath
func (c *Core) complete(done uint32) {
	if done != 0 {
		c.cur.Owner.Complete(done)
	}
}

// begin makes s the current stream.
func (c *Core) begin(s *Stream) {
	if s.AcctID >= len(c.FuncCycles) {
		panic(fmt.Sprintf("cpu: core %d: stream %q has AcctID %d, but the core has %d buckets",
			c.ID, s.Name, s.AcctID, len(c.FuncCycles)))
	}
	c.cur = s
	c.acct = s.AcctID
	if c.acct < 0 {
		c.acct = -1
	}
	c.opIdx = 0
	c.pcOff = 0
	c.state = stFetch
	c.lockPhase = lkNone
	c.setOp()
}

// setOp caches the attribution of the op at opIdx.
func (c *Core) setOp() {
	k := c.cur.Ops[c.opIdx].Kind
	c.lockOp = k == OpLock || k == OpUnlock
}

// release drops the current stream.
func (c *Core) release() {
	c.cur = nil
	c.acct = -1
	c.lockOp = false
	c.state = stFetch
}

// woken calls the wake function, if the core has one.
func (c *Core) woken() {
	if c.wake != nil {
		c.wake()
	}
}

// SetGate installs g as the core's execution gate, or removes it (nil): g
// is consulted every cycle, and false vetoes the cycle (fault injection:
// stuck cores execute nothing, slowed cores only on a subset of cycles).
// Vetoed cycles count as FaultStalls. A gated core never sleeps, so fault
// windows install the gate only while they are open. Installing wakes the
// core: the wake replays the ticks it slept through, which never consult the
// gate, and Sleep then answers 0, so every later cycle reaches the gate.
// Removing needs no wake: a gated core is awake and sleeps again after its
// next real tick.
func (c *Core) SetGate(g func(cycle uint64) bool) {
	c.gate = g
	if g != nil {
		c.woken()
	}
}

// Busy reports whether the core is executing a stream.
func (c *Core) Busy() bool { return c.cur != nil }

// Tick advances the core one CPU-domain cycle.
//
//nic:hotpath
func (c *Core) Tick(cycle uint64) {
	c.Stats.Cycles++
	if c.gate != nil && !c.gate(cycle) {
		c.Stats.FaultStalls++
		return
	}

	if c.cur == nil {
		if c.NextWork != nil {
			if s := c.NextWork(); s != nil && len(s.Ops) > 0 {
				c.begin(s)
				if c.OnStreamBegin != nil {
					c.OnStreamBegin(s)
				}
			}
		}
		if c.cur == nil {
			c.Stats.IdleCycles++
			return
		}
	}
	if a := c.acct; a >= 0 {
		c.FuncCycles[a]++
		if c.lockOp {
			c.FuncLockCycles[a]++
		}
	}

	// State transitions loop until this cycle is consumed (every branch of
	// the switch either returns after consuming the cycle or continues to
	// more bookkeeping).
	for {
		switch c.state {
		case stHazard:
			c.Stats.PipelineStalls++
			c.hazardCtr--
			if c.hazardCtr == 0 {
				c.advance()
			}
			return

		case stPlain:
			// One non-memory instruction of the lock sequence per cycle.
			c.retire()
			c.plainCtr--
			if c.plainCtr == 0 {
				c.endPlain()
			}
			return

		case stWaitMem:
			if !c.memDone {
				if c.firstWait {
					c.Stats.LoadStalls++
					c.firstWait = false
				} else {
					c.Stats.ConflictStalls++
				}
				return
			}
			// Transaction completed in an earlier cycle's crossbar tick.
			if !c.resolve() {
				return
			}
			continue

		case stWaitFill:
			if !c.fillDone {
				c.Stats.IMissStalls++
				return
			}
			c.icache.Fill(c.cur.CodeBase + c.pcOff)
			c.state = stFetch
			continue

		case stFetch:
			if !c.icache.Lookup(c.cur.CodeBase + c.pcOff) {
				c.fillDone = false
				c.imem.RequestFill(c.ID, c.onFill)
				c.state = stWaitFill
				c.Stats.IMissStalls++
				return
			}
			c.execute()
			return
		}
	}
}

// resolve runs the first cycle after a load, RMW or lock transaction
// completed. It reports whether the cycle goes on to execute the next op,
// as it does after a plain load or RMW.
func (c *Core) resolve() bool {
	switch c.lockPhase {
	case lkLL:
		c.retire()
		c.state = stPlain
		if c.lockVal != 0 {
			// Lock held: bnez taken costs this cycle, then a short backoff
			// delay loop before the retry.
			c.lockPhase = lkBackoff
			c.plainCtr = spinBackoff
			return false
		}
		// Free: retire bnez this cycle, delay slot next, then sc.
		c.lockPhase = lkBranch
		c.plainCtr = 1
		return false
	case lkSC:
		c.retire()
		if c.lockVal == 0 {
			// sc failed: beqz taken costs this cycle; retry from ll.
			c.lockPhase = lkNone
			c.state = stFetch
			return false
		}
		// Acquired: retire beqz this cycle, nop next.
		c.lockPhase = lkCheck
		c.plainCtr = 1
		c.state = stPlain
		return false
	}
	// Plain load/RMW: the stall cycles are over.
	c.finishOp(&c.cur.Ops[c.opIdx])
	return c.cur != nil && c.state == stFetch
}

// endPlain moves on from the last plain instruction of a lock-sequence step.
func (c *Core) endPlain() {
	switch c.lockPhase {
	case lkBranch:
		c.lockPhase = lkSC
		c.state = stFetch
	case lkCheck:
		c.lockPhase = lkNone
		op := &c.cur.Ops[c.opIdx]
		c.complete(op.Done) // lock acquired
		c.finishOp(op)
	case lkBackoff:
		c.lockPhase = lkNone // retry the ll
		c.state = stFetch
	default:
		panic(fmt.Sprintf("cpu: core %d: stPlain in lock phase %d", c.ID, c.lockPhase))
	}
}

// execute runs one op's issue cycle. It always consumes the cycle.
func (c *Core) execute() {
	op := &c.cur.Ops[c.opIdx]
	switch op.Kind {
	case OpALU:
		c.retire()
		c.complete(op.Done)
		c.finishOp(op)

	case OpLoad, OpRMW:
		if c.xbar.Busy(c.port) {
			c.Stats.ConflictStalls++ // store buffer draining
			return
		}
		c.retire()
		if op.Kind == OpLoad {
			c.Stats.Loads++
		} else {
			c.Stats.RMWs++
		}
		c.countMem()
		c.memDone = false
		c.firstWait = true
		if op.Kind == OpLoad {
			c.submit(cbLoad, op.Addr, false, op.Done)
		} else {
			c.submit(cbRMW, op.Addr, true, op.Done)
		}
		c.state = stWaitMem

	case OpStore:
		if c.xbar.Busy(c.port) {
			c.Stats.ConflictStalls++
			return
		}
		c.retire()
		c.Stats.Stores++
		c.countMem()
		c.submit(cbStore, op.Addr, true, op.Done)
		// Buffered: the core does not wait for the store.
		c.finishOp(op)

	case OpLock:
		if c.xbar.Busy(c.port) {
			c.Stats.ConflictStalls++
			return
		}
		if c.lockPhase == lkSC {
			c.issueSC(op)
			return
		}
		c.retire() // the ll
		c.Stats.Loads++
		c.Stats.SpinLoads++
		c.countMem()
		c.memDone = false
		c.firstWait = true
		c.submit(cbLL, op.Addr, false, 0)
		c.lockPhase = lkLL
		c.state = stWaitMem

	case OpUnlock:
		if c.xbar.Busy(c.port) {
			c.Stats.ConflictStalls++
			return
		}
		c.retire()
		c.Stats.Stores++
		c.countMem()
		c.submit(cbUnlock, op.Addr, true, op.Done)
		c.finishOp(op)
	}
}

// issueSC runs when an OpLock reaches the sc step: issue the store
// conditional. Called from the fetch path via lockPhase.
func (c *Core) issueSC(op *Op) {
	c.retire() // the sc
	c.Stats.Stores++
	c.countMem()
	c.memDone = false
	c.firstWait = true
	c.submit(cbSC, op.Addr, true, 0)
	c.state = stWaitMem
}

// retire counts one retired instruction and advances the synthetic PC.
func (c *Core) retire() {
	c.Stats.Instructions++
	if a := c.acct; a >= 0 {
		c.FuncInstr[a]++
		if c.lockOp {
			c.FuncLockInstr[a]++
		}
	}
	c.pcOff += 4
	if c.cur != nil && c.cur.CodeLen > 0 && c.pcOff >= c.cur.CodeLen {
		c.pcOff = 0
	}
}

// countMem attributes one scratchpad access to the current bucket.
func (c *Core) countMem() {
	if a := c.acct; a >= 0 {
		c.FuncMem[a]++
	}
}

// finishOp applies hazards and advances past a completed op.
func (c *Core) finishOp(op *Op) {
	if op.Hazard > 0 {
		c.hazardCtr = op.Hazard
		c.state = stHazard
		return
	}
	c.advance()
}

// advance moves to the next op or completes the stream.
func (c *Core) advance() {
	c.opIdx++
	if c.opIdx >= len(c.cur.Ops) {
		cur := c.cur
		owner, done := cur.Owner, cur.Done
		c.release()
		if c.OnStreamEnd != nil {
			c.OnStreamEnd(cur)
		}
		if done != 0 {
			owner.Complete(done)
		}
		return
	}
	c.setOp()
	c.state = stFetch
}

// Sleep implements sim.Sleeper. A core sleeps through hazard bubbles and
// runs of plain ALU ops (no Done, instruction-cache hits), through a
// lock sequence's plain instructions, and until the crossbar or the
// instruction memory completes what it waits on: a load, RMW or lock
// transaction, an instruction fill, or the buffered store that keeps its
// port busy. Woken by a completed transaction, it sleeps on through the tick
// that resolves it and the plain run that follows. A tick that begins or
// ends a stream, runs a callback, issues a memory access or fill, or
// installs a filled line is always real. A gated core and an idle core,
// which polls NextWork every cycle, never sleep; a core is gated only while
// a fault window holds it (SetGate).
func (c *Core) Sleep() uint64 {
	if c.gate != nil || c.cur == nil {
		return 0
	}
	switch c.state {
	case stWaitMem:
		if !c.memDone {
			return sim.UntilWoken
		}
		return c.resolveRun()
	case stWaitFill:
		if !c.fillDone {
			return sim.UntilWoken
		}
		return 0
	case stPlain:
		if c.lockPhase == lkCheck {
			return uint64(c.plainCtr) - 1 // the last one completes the acquire
		}
		return uint64(c.plainCtr) // the next tick fetches the OpLock again
	}
	if c.portBlocked() && c.xbar.Busy(c.port) && c.icache.Probe(c.cur.CodeBase+c.pcOff) {
		return sim.UntilWoken
	}
	if c.state == stHazard {
		return c.plainTicks(c.opIdx, c.hazardCtr)
	}
	return c.plainTicks(c.opIdx, 0)
}

// resolveRun counts the ticks ahead, from a completed transaction, that are
// bookkeeping: the resolving tick and the lock sequence's plain
// instructions up to the next ll or sc, or, after a plain load or RMW, the
// resolving tick with the plain run it starts.
func (c *Core) resolveRun() uint64 {
	switch c.lockPhase {
	case lkLL:
		if c.lockVal != 0 {
			return 1 + spinBackoff
		}
		return 2 // bnez and the delay slot; then the sc issues
	case lkSC:
		return 1 // beqz; then the ll issues again or the acquire completes
	}
	i := c.opIdx
	if h := c.cur.Ops[i].Hazard; h > 0 {
		return 1 + c.plainTicks(i, h)
	}
	if i+1 == len(c.cur.Ops) {
		return 0 // the stream ends
	}
	// The resolving tick executes the next op, as that op's own first tick.
	return c.plainTicks(i+1, 0)
}

// portBlocked reports whether the core is about to issue a memory op, which
// stalls while a buffered store keeps its crossbar port busy.
func (c *Core) portBlocked() bool {
	return c.cur != nil && c.state == stFetch && c.cur.Ops[c.opIdx].Kind != OpALU
}

// plainTicks counts the ticks ahead that only count hazards down and retire
// plain ALU ops, starting with ctr bubbles of op i when ctr > 0 and else
// with fetching op i at pcOff: the walk stops at the first op that is not
// plain, misses in the instruction cache (a side-effect-free probe; only
// this core's real ticks fill its cache), or would end the stream.
func (c *Core) plainTicks(i int, ctr uint8) uint64 {
	ops := c.cur.Ops
	var k uint64
	if ctr > 0 {
		if i+1 == len(ops) {
			return uint64(ctr) - 1
		}
		k = uint64(ctr)
		i++
	}
	pc := c.pcOff
	line := ^uint32(0) // the last line probed
	for ; i < len(ops); i++ {
		op := &ops[i]
		if op.Kind != OpALU || op.Done != 0 {
			break
		}
		if l := c.icache.Line(c.cur.CodeBase + pc); l != line {
			if !c.icache.Probe(c.cur.CodeBase + pc) {
				break
			}
			line = l
		}
		last := i+1 == len(ops)
		if last && op.Hazard == 0 {
			break // finishing the op ends the stream
		}
		k += 1 + uint64(op.Hazard)
		pc += 4
		if c.cur.CodeLen > 0 && pc >= c.cur.CodeLen {
			pc = 0
		}
		if last {
			// The retire and all but the last bubble; the tick that
			// finishes the op ends the stream.
			k--
			break
		}
	}
	return k
}

// Skip implements sim.Sleeper: it replays n ticks Sleep allowed, in bulk:
// the counters of waits, bubbles and retires are added once, and the cache
// hits once per line.
func (c *Core) Skip(n uint64) {
	c.Stats.Cycles += n
	for n > 0 {
		switch c.state {
		case stWaitMem:
			if c.memDone && !c.replaying {
				// The resolving tick, which may go on to execute a plain
				// ALU op as that op's first tick.
				c.attribute(1)
				if c.resolve() {
					c.skipALU(n, 1)
					return
				}
				n--
				continue
			}
			c.attribute(n)
			if c.firstWait {
				c.Stats.LoadStalls++
				c.firstWait = false
				n--
			}
			c.Stats.ConflictStalls += n
			return
		case stWaitFill:
			c.attribute(n)
			c.Stats.IMissStalls += n
			return
		case stPlain:
			m := min(n, uint64(c.plainCtr))
			c.attribute(m)
			c.plainCtr -= uint8(m)
			for n -= m; m > 0; m-- {
				c.retire()
			}
			if c.plainCtr == 0 {
				c.endPlain()
			}
		case stHazard:
			m := min(n, uint64(c.hazardCtr))
			c.attribute(m)
			c.Stats.PipelineStalls += m
			c.hazardCtr -= uint8(m)
			n -= m
			if c.hazardCtr == 0 {
				c.advance()
			}
		default: // stFetch
			if c.cur.Ops[c.opIdx].Kind != OpALU {
				// A memory op stalled on the busy port; the cache hits.
				c.attribute(n)
				c.Stats.ConflictStalls += n
				c.icache.HitN(c.cur.CodeBase+c.pcOff, n)
				return
			}
			c.skipALU(n, 0)
			return
		}
	}
}

// skipALU replays n ticks of plain ALU ops and their hazard bubbles from
// stFetch, the first attributed of them already charged to a bucket; it may
// end inside an op's bubbles.
func (c *Core) skipALU(n, attributed uint64) {
	end, bubbles := c.walkALU(n)
	retired := uint64(end - c.opIdx)
	if bubbles > 0 {
		retired++
		c.state = stHazard
		c.hazardCtr = bubbles
	}
	c.pcOff = c.fetchHits(retired)
	c.Stats.Instructions += retired
	c.Stats.PipelineStalls += n - retired
	if a := c.acct; a >= 0 {
		c.FuncCycles[a] += n - attributed
		c.FuncInstr[a] += retired
	}
	if c.opIdx != end {
		c.opIdx = end
		c.setOp()
	}
}

// walkALU finds where n ticks of plain ALU ops and their bubbles, from
// fetching the op at opIdx, end: the op they leave the core at, and the
// bubbles of it still to come.
func (c *Core) walkALU(n uint64) (end int, bubbles uint8) {
	i := c.opIdx
	for {
		h := uint64(c.cur.Ops[i].Hazard)
		n-- // the retire
		if n < h {
			return i, uint8(h - n)
		}
		n -= h
		i++
		if n == 0 {
			return i, 0
		}
	}
}

// fetchHits replays the cache hits of n sequential fetches from pcOff, one
// lookup per line, and returns the pcOff that follows them.
func (c *Core) fetchHits(n uint64) uint32 {
	s := c.cur
	pc := c.pcOff
	for n > 0 {
		addr := s.CodeBase + pc
		m := uint64(((c.icache.Line(addr)+1)*mem.ICacheLineBytes - addr + 3) / 4) // fetches left in the line
		if s.CodeLen > 0 {
			m = min(m, uint64((s.CodeLen-pc+3)/4)) // fetches before the code wraps
		}
		m = min(m, n)
		c.icache.HitN(addr, m)
		n -= m
		pc += 4 * uint32(m)
		if s.CodeLen > 0 && pc >= s.CodeLen {
			pc = 0
		}
	}
	return pc
}

// attribute charges n cycles to the current op's bucket.
func (c *Core) attribute(n uint64) {
	if a := c.acct; a >= 0 {
		c.FuncCycles[a] += n
		if c.lockOp {
			c.FuncLockCycles[a] += n
		}
	}
}

// SetWake implements sim.Sleeper.
func (c *Core) SetWake(wake func()) { c.wake = wake }

// Preempt evicts the core's current stream so a supervisor can re-dispatch it
// on another core (stuck-core takeover). It returns the remainder of the
// stream — the operations that have not yet taken functional effect — or nil
// when the core was idle. ok=false means the core cannot be preempted right
// now: a store-conditional is in flight, so whether the lock was acquired is
// not yet known; the caller should retry shortly.
//
// The remainder is constructed so that every functional side effect happens
// exactly once: operations whose memory transaction is in flight or complete
// are skipped (the crossbar callback delivers their Done regardless of
// preemption), while operations that never issued — including a lock
// microsequence that had not yet won its sc — are re-issued verbatim.
// Preempting inside a held critical section is safe: the lock word stays set
// and the remainder still contains the matching OpUnlock. The remainder's Ops
// share the evicted stream's backing array, so the supplier must not reuse
// that array while the remainder is outstanding.
func (c *Core) Preempt() (*Stream, bool) {
	// Preempt runs outside the core's clock domain: replay the ticks the
	// core slept through before reading its state.
	c.woken()
	if c.cur == nil {
		return nil, true
	}
	// sc outstanding: the lock outcome is unknown until the transaction
	// completes, so neither skipping nor re-issuing the OpLock is sound.
	if c.state == stWaitMem && c.lockPhase == lkSC && !c.memDone {
		return nil, false
	}

	resume := c.opIdx // first op of the remainder
	op := &c.cur.Ops[c.opIdx]
	switch c.state {
	case stHazard:
		// Op executed; only hazard bubbles remained.
		resume++
	case stPlain:
		switch c.lockPhase {
		case lkCheck:
			// sc succeeded: the lock is held but Done is undelivered.
			c.complete(op.Done)
			resume++
		default: // lkBranch, lkBackoff: lock not acquired — retry the ll.
		}
	case stWaitMem:
		switch c.lockPhase {
		case lkNone:
			// Plain load/RMW in flight or complete: the crossbar callback
			// delivers Done itself; do not deliver it again.
			resume++
		case lkLL:
			// ll outstanding: nothing functional happened; retry.
		case lkSC: // memDone, else refused above
			if c.lockVal != 0 {
				c.complete(op.Done)
				resume++
			}
			// else sc failed: retry the ll.
		}
	case stFetch, stWaitFill:
		// Current op never issued; re-issue it.
	}

	out := &Stream{
		Name:     c.cur.Name,
		CodeBase: c.cur.CodeBase,
		CodeLen:  c.cur.CodeLen,
		Ops:      c.cur.Ops[resume:],
		AcctID:   c.cur.AcctID,
		Owner:    c.cur.Owner,
		Done:     c.cur.Done,
	}
	if len(out.Ops) == 0 {
		// Every op took effect; keep a one-op stub so Done is still
		// delivered on the rescuing core.
		out.Ops = []Op{{Kind: OpALU}}
	}
	if c.OnStreamEnd != nil {
		c.OnStreamEnd(c.cur)
	}
	c.release()
	c.lockPhase = lkNone
	c.hazardCtr = 0
	c.plainCtr = 0
	// The core is idle now and polls from its next edge: wake it again so
	// the domain asks Sleep anew and drops what is left of its countdown.
	c.woken()
	return out, true
}
