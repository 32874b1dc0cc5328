package firmware

import (
	"testing"
	"unsafe"

	"repro/internal/cpu"
	"repro/internal/host"
)

func TestSlotRingAllocRelease(t *testing.T) {
	r := newSlotRing(0x1000, 1530, 4)
	if r.available() != 4 {
		t.Fatalf("available = %d", r.available())
	}
	seen := map[uint32]bool{}
	var addrs []uint32
	for i := 0; i < 4; i++ {
		addr, ok := r.alloc()
		if !ok {
			t.Fatalf("alloc %d failed", i)
		}
		if seen[addr] {
			t.Errorf("duplicate address %#x", addr)
		}
		seen[addr] = true
		if (addr-0x1000)%1530 != 0 {
			t.Errorf("address %#x not slot aligned", addr)
		}
		addrs = append(addrs, addr)
	}
	if _, ok := r.alloc(); ok {
		t.Error("alloc succeeded on empty ring")
	}
	r.release(addrs[2])
	if r.available() != 1 {
		t.Errorf("available after release = %d", r.available())
	}
	// Release names the slot by its address: the same slot comes back.
	if addr, _ := r.alloc(); addr != addrs[2] {
		t.Errorf("alloc after releasing %#x = %#x", addrs[2], addr)
	}
}

func TestSlotRingMisalignedStarts(t *testing.T) {
	// Slot size 1530 is deliberately not a multiple of 8: consecutive slots
	// start at varying 8-byte phases, producing the paper's SDRAM alignment
	// waste.
	r := newSlotRing(0, 1530, 8)
	phases := map[uint32]bool{}
	for i := 0; i < 8; i++ {
		addr, _ := r.alloc()
		phases[addr%8] = true
	}
	if len(phases) < 2 {
		t.Errorf("all slots share one 8-byte phase; want misalignment variety")
	}
}

func TestDefaultProfileIdealBudgets(t *testing.T) {
	p := DefaultProfile(SoftwareOnly)
	// Table 1 reconstruction: the send path's ideal per-frame budget is
	// 282 instructions and 100 data accesses (229 MIPS and 2.6 Gb/s at
	// 812,744 frames/s); receive is 253 and 85.
	sendInstr := float64(p.FetchSendBDBatch.Instr)/FramesPerSendBD +
		float64(p.SendFramePrep.Instr+p.SendFrameDone.Instr+p.SendFrameComplete.Instr)
	if sendInstr < 260 || sendInstr > 300 {
		t.Errorf("ideal send instructions per frame = %.1f, want ~282", sendInstr)
	}
	recvInstr := float64(p.FetchRecvBDBatch.Instr)/RecvBDsPerBatch +
		float64(p.RecvFramePrep.Instr+p.RecvFrameDone.Instr+p.RecvFrameComplete.Instr)
	if recvInstr < 235 || recvInstr > 275 {
		t.Errorf("ideal receive instructions per frame = %.1f, want ~253", recvInstr)
	}
}

func TestProfileOrderingStrings(t *testing.T) {
	if SoftwareOnly.String() != "Software-only" || RMWEnhanced.String() != "RMW-enhanced" {
		t.Error("ordering names wrong")
	}
	if FrameParallel.String() != "frame-parallel" || TaskParallel.String() != "task-parallel" {
		t.Error("parallelism names wrong")
	}
}

func TestTaskCostArithmetic(t *testing.T) {
	c := TaskCost{100, 20, 10}
	if got := c.scale(0.5); got != (TaskCost{50, 10, 5}) {
		t.Errorf("scale = %+v", got)
	}
	if got := c.add(TaskCost{1, 2, 3}); got != (TaskCost{101, 22, 13}) {
		t.Errorf("add = %+v", got)
	}
	if c.Accesses() != 30 {
		t.Errorf("accesses = %d", c.Accesses())
	}
}

func TestBuilderLockUnlockAndRMW(t *testing.T) {
	b := newBuilder(&streamPool{}, 1, 0)
	b.lock(0x100, 0)
	b.alu(2)
	b.unlock(0x100, 0)
	b.rmw(0x200, 0)
	s := b.build("x", 0, 64, 1, 0)
	if len(s.Ops) != 5 {
		t.Fatalf("ops = %d", len(s.Ops))
	}
	kinds := []cpu.OpKind{cpu.OpLock, cpu.OpALU, cpu.OpALU, cpu.OpUnlock, cpu.OpRMW}
	for i, k := range kinds {
		if s.Ops[i].Kind != k {
			t.Errorf("op %d kind = %v, want %v", i, s.Ops[i].Kind, k)
		}
	}
}

// TestBuilderThenRejectsSecondCompletion checks that then attaches its
// record to the last op, and that an op carries at most one: a second
// record would silently replace the first.
func TestBuilderThenRejectsSecondCompletion(t *testing.T) {
	b := newBuilder(&streamPool{}, 1, 0)
	b.alu(1)
	b.then(rec(doneCommit, 3))
	if got := b.ops[0].Done; got != rec(doneCommit, 3) {
		t.Fatalf("Done = %#x", got)
	}
	defer func() {
		if recover() == nil {
			t.Error("then attached a second completion record to one op")
		}
	}()
	b.then(rec(doneCommit, 4))
}

func TestBuilderThenOnEmptyStreamAddsOp(t *testing.T) {
	b := newBuilder(&streamPool{}, 1, 0)
	b.then(rec(doneEnd, 0))
	if len(b.ops) != 1 {
		t.Fatalf("ops = %d", len(b.ops))
	}
	if b.ops[0].Done != rec(doneEnd, 0) {
		t.Error("completion not attached")
	}
}

func TestAddrCycleRotatesBasesAndAdvances(t *testing.T) {
	b := newBuilder(&streamPool{}, 1, 0)
	g := b.cycle(0x100, 0x200)
	if g.at(0) != 0x100 || g.at(1) != 0x200 {
		t.Errorf("first cycle: %#x %#x", g.at(0), g.at(1))
	}
	if g.at(2) != 0x104 || g.at(3) != 0x204 {
		t.Errorf("second cycle: %#x %#x", g.at(2), g.at(3))
	}
	// The advance wraps after 8 words; a walk does not wrap.
	if g.at(16) != 0x100 || walk([]uint32{0x100, 0x200}).at(16) != 0x120 {
		t.Errorf("wrap: cycle %#x, walk %#x", g.at(16), walk([]uint32{0x100, 0x200}).at(16))
	}
}

func TestCodeRegionsFitConfiguredFootprints(t *testing.T) {
	p := DefaultProfile(SoftwareOnly)
	regions := []struct {
		name string
		base uint32
		len  uint32
	}{
		{"dispatch", codeDispatchBase, p.CodeDispatch},
		{"fetchbd", codeFetchBDBase, p.CodeFetchBD},
		{"send", codeSendBase, p.CodeSendFrame},
		{"recv", codeRecvBase, p.CodeRecvFrame},
		{"order", codeOrderBase, p.CodeOrdering},
	}
	for i := 0; i < len(regions)-1; i++ {
		if regions[i].base+regions[i].len > regions[i+1].base {
			t.Errorf("region %s overlaps %s", regions[i].name, regions[i+1].name)
		}
	}
}

func TestLockAddressesDistinctBanks(t *testing.T) {
	// The lock words are consecutive scratchpad words, so with 4 banks the
	// four hottest locks land in four different banks.
	banks := map[uint32]int{}
	for _, l := range []uint32{LockSendBD, LockRecvBD, LockTxAlloc, LockRxPool} {
		banks[(l/4)%4]++
	}
	if len(banks) != 4 {
		t.Errorf("hot locks share banks: %v", banks)
	}
}

// TestFlagsCoverEveryFrameInFlight holds the fixed sizes to the status-flag
// arrays: every frame in a receive queue's pipeline holds a buffer slot and
// one of the queue's flags, and a single flow steers all frames to one
// queue, so each of MaxRxQueues queues needs a flag per receive slot;
// likewise the send flags cover every frame the host keeps posted.
func TestFlagsCoverEveryFrameInFlight(t *testing.T) {
	if got := RecvFlagBits(MaxRxQueues); got < rxSlots {
		t.Errorf("%d receive queues get %d flags each, fewer than the %d receive slots", MaxRxQueues, got, rxSlots)
	}
	if got := RecvFlagBits(2 * MaxRxQueues); got >= rxSlots {
		t.Errorf("MaxRxQueues %d is not the largest power of two: %d queues still get %d flags each", MaxRxQueues, 2*MaxRxQueues, got)
	}
	if ring := host.DefaultConfig().SendRing; ring > FlagBits {
		t.Errorf("the host's %d-frame send ring exceeds the %d send flags", ring, FlagBits)
	}
}

// TestCompletionOperandLayout holds the completion operand's fields apart:
// a flag position or frame count (at most FlagBits) below queueShift, every
// ordering ring's index — the send ring plus MaxRxQueues receive rings —
// between queueShift and releaseShift. It also holds the frame record to 32
// bytes: a 56-byte record raised line-rmw166's allocation rate past the
// benchmark's 5% bound.
func TestCompletionOperandLayout(t *testing.T) {
	if FlagBits >= 1<<queueShift {
		t.Errorf("FlagBits %d does not fit below queueShift %d", FlagBits, queueShift)
	}
	last := orderRing{q: MaxRxQueues - 1}
	if MaxRxQueues > ringMask || last.arg(FlagBits-1) >= 1<<releaseShift {
		t.Errorf("ring index %d does not fit below releaseShift %d", MaxRxQueues, releaseShift)
	}
	if last.arg(0)>>queueShift&ringMask != MaxRxQueues {
		t.Errorf("ring index %d does not survive the operand mask", MaxRxQueues)
	}
	if size := unsafe.Sizeof(frame{}); size > 32 {
		t.Errorf("frame record is %d bytes, want at most 32", size)
	}
}

func TestFlagArraysDisjoint(t *testing.T) {
	sendEnd := uint32(FlagsSend) + FlagBits/8
	if sendEnd > FlagsRecv {
		t.Errorf("send flags [%#x, %#x) overlap receive flags at %#x",
			uint32(FlagsSend), sendEnd, uint32(FlagsRecv))
	}
	recvEnd := uint32(FlagsRecv) + FlagBits/8
	if recvEnd > RegionLocks {
		t.Errorf("receive flags end %#x overlap locks at %#x", recvEnd, uint32(RegionLocks))
	}
}
