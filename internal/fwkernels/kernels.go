// Package fwkernels contains the frame-ordering firmware kernels at the
// heart of the paper's contribution, written in real assembly for the
// MIPS-subset ISA and executed on the interpreter to measure their dynamic
// instruction and memory-access costs.
//
// The paper's frame-level parallel firmware must commit frames in arrival
// order. Each stage marks a frame's status flag when done; the dispatch loop
// scans for a consecutive run of done flags from the commit point and
// advances a hardware pointer past the run. Two implementations are compared:
//
//   - software-only: a lock serializes the scan; flag set and clear are
//     ordinary load/modify/store sequences under the lock, and the scan loops
//     over the bit array ("synchronize, check for consecutive set flags,
//     clear the flags, update pointers as necessary, and then finally
//     release synchronization");
//   - RMW-enhanced: the paper's atomic set and update instructions replace
//     the looping, locked accesses with two single-word scratchpad
//     transactions.
//
// Measuring these kernels on the interpreter, rather than asserting
// constants, grounds the Table 5 deltas in executed code.
package fwkernels

import (
	"fmt"

	"repro/internal/asm"
	"repro/internal/trace"
	"repro/internal/vm"
)

// Cost is the measured dynamic cost of one kernel invocation.
type Cost struct {
	Instructions uint64
	Loads        uint64
	Stores       uint64
	RMWs         uint64
}

// MemAccesses returns total data memory accesses (RMW operations count as
// one scratchpad transaction each).
func (c Cost) MemAccesses() uint64 { return c.Loads + c.Stores + c.RMWs }

// Sub returns c - o fieldwise, for isolating a measured region between two
// snapshots.
func (c Cost) Sub(o Cost) Cost {
	return Cost{
		Instructions: c.Instructions - o.Instructions,
		Loads:        c.Loads - o.Loads,
		Stores:       c.Stores - o.Stores,
		RMWs:         c.RMWs - o.RMWs,
	}
}

// Per divides the cost by n invocations to get an amortized per-item cost in
// floating point.
func (c Cost) Per(n int) PerItem {
	d := float64(n)
	return PerItem{
		Instructions: float64(c.Instructions) / d,
		MemAccesses:  float64(c.MemAccesses()) / d,
	}
}

// PerItem is an amortized per-frame cost.
type PerItem struct {
	Instructions float64
	MemAccesses  float64
}

// Memory layout used by all kernels (byte addresses in VM memory).
const (
	flagsBase = 0x8000 // status-flag bit array
	lockAddr  = 0x8100 // spinlock protecting the array (software-only)
	headAddr  = 0x8104 // software commit point
	hwPtrAddr = 0x8108 // hardware pointer the commit publishes
)

// swSource is the software-only ordering implementation.
//
// sw_set: mark frame $a2 done. Acquire the lock, OR the frame's bit into its
// flag word, release.
//
// sw_commit: scan from the head for consecutive done flags, clear them,
// advance the head, publish the hardware pointer, all under the lock.
const swSource = `
        .org 0x0
# $a0 = flags base, $a1 = lock, $a2 = frame index / scratch
# $s1 = head addr, $s2 = hw pointer addr

sw_set:
sw_set_acq:
        ll    $t0, 0($a1)
        bnez  $t0, sw_set_acq
        addiu $t1, $zero, 1
        sc    $t1, 0($a1)
        beqz  $t1, sw_set_acq
        nop
        srl   $t3, $a2, 5        # word index
        sll   $t3, $t3, 2
        addu  $t4, $a0, $t3
        lw    $t5, 0($t4)
        andi  $t6, $a2, 31
        addiu $t7, $zero, 1
        sllv  $t7, $t7, $t6
        or    $t5, $t5, $t7
        sw    $t5, 0($t4)
        sw    $zero, 0($a1)      # release
        jr    $ra
        nop

sw_commit:
sw_commit_acq:
        ll    $t0, 0($a1)
        bnez  $t0, sw_commit_acq
        addiu $t1, $zero, 1
        sc    $t1, 0($a1)
        beqz  $t1, sw_commit_acq
        nop
        lw    $t2, 0($s1)        # head index
sw_scan:
        srl   $t3, $t2, 5
        sll   $t3, $t3, 2
        addu  $t4, $a0, $t3
        lw    $t5, 0($t4)        # flags word
        andi  $t6, $t2, 31
        srlv  $t7, $t5, $t6
        andi  $t7, $t7, 1
        beqz  $t7, sw_scan_done
        nop
        addiu $t8, $zero, 1
        sllv  $t8, $t8, $t6
        xor   $t5, $t5, $t8      # clear the bit
        sw    $t5, 0($t4)
        b     sw_scan
        addiu $t2, $t2, 1        # delay slot: advance head
sw_scan_done:
        sw    $t2, 0($s1)        # store new head
        sw    $t2, 0($s2)        # publish hardware pointer
        sw    $zero, 0($a1)      # release
        jr    $ra
        nop
`

// rmwSource is the RMW-enhanced implementation: set and update replace the
// locked sequences entirely.
const rmwSource = `
        .org 0x0
# $a0 = flags base, $a2 = frame index, $s2 = hw pointer addr

rmw_set:
        setb  $a0, $a2
        jr    $ra
        nop

rmw_commit:
        upd   $v0, $a0
        addiu $t0, $zero, -1
        beq   $v0, $t0, rmw_none
        nop
        sw    $v0, 0($s2)        # publish hardware pointer
rmw_none:
        jr    $ra
        nop
`

// A Kernel is a loaded, measurable firmware routine.
type Kernel struct {
	cpu  *vm.CPU
	prog *asm.Program
}

// retAddr is a break instruction placed after the program so "jr $ra"
// returns into a halt.
const retAddr = 0x7000

// loadKernel assembles source and prepares a CPU with the standard register
// environment.
func loadKernel(src string) (*Kernel, error) {
	prog, err := asm.Assemble(src)
	if err != nil {
		return nil, err
	}
	k := &Kernel{prog: prog, cpu: vm.New(64 * 1024)}
	if err := k.cpu.Load(prog); err != nil {
		return nil, err
	}
	// break at the return address.
	brk := asm.MustAssemble(fmt.Sprintf(".org %#x\nbreak", retAddr))
	if err := k.cpu.Load(brk); err != nil {
		return nil, err
	}
	c := k.cpu
	c.Regs[4] = flagsBase // $a0
	c.Regs[5] = lockAddr  // $a1
	c.Regs[17] = headAddr // $s1
	c.Regs[18] = hwPtrAddr
	return k, nil
}

// call runs the routine at the given label to completion and returns its
// isolated cost.
func (k *Kernel) call(label string, frameIndex uint32) (Cost, error) {
	entry, ok := k.prog.Symbols[label]
	if !ok {
		return Cost{}, fmt.Errorf("fwkernels: no symbol %q", label)
	}
	c := k.cpu
	before := Cost{c.Instructions, c.Loads, c.Stores, c.RMWs}
	c.Regs[6] = frameIndex // $a2
	c.Regs[31] = retAddr
	if err := c.Jump(entry); err != nil {
		return Cost{}, err
	}
	halted, err := c.Run(1_000_000)
	if err != nil {
		return Cost{}, err
	}
	if !halted {
		return Cost{}, fmt.Errorf("fwkernels: %s did not return", label)
	}
	after := Cost{c.Instructions, c.Loads, c.Stores, c.RMWs}
	return after.Sub(before), nil
}

// Results bundles the amortized per-frame ordering costs of both
// implementations, measured over the given commit-run length (the number of
// consecutive frames each commit scan finds ready; the paper's firmware
// commits "all subsequent, consecutive frames" per dispatch-loop pass).
type Results struct {
	RunLength int
	SWSet     PerItem // software-only: mark one frame done
	SWCommit  PerItem // software-only: commit, amortized per frame
	RMWSet    PerItem
	RMWCommit PerItem
}

// PerFrameSW returns total software-only ordering cost per frame.
func (r Results) PerFrameSW() PerItem {
	return PerItem{
		Instructions: r.SWSet.Instructions + r.SWCommit.Instructions,
		MemAccesses:  r.SWSet.MemAccesses + r.SWCommit.MemAccesses,
	}
}

// PerFrameRMW returns total RMW-enhanced ordering cost per frame.
func (r Results) PerFrameRMW() PerItem {
	return PerItem{
		Instructions: r.RMWSet.Instructions + r.RMWCommit.Instructions,
		MemAccesses:  r.RMWSet.MemAccesses + r.RMWCommit.MemAccesses,
	}
}

// InstructionReduction returns the fractional reduction in per-frame
// ordering instructions from software-only to RMW-enhanced (the paper: 51.5%
// for sent frames, 30.8% for received).
func (r Results) InstructionReduction() float64 {
	sw, rmw := r.PerFrameSW().Instructions, r.PerFrameRMW().Instructions
	return 1 - rmw/sw
}

// MemAccessReduction returns the fractional reduction in per-frame ordering
// memory accesses (the paper: 65.0% send, 35.2% receive).
func (r Results) MemAccessReduction() float64 {
	sw, rmw := r.PerFrameSW().MemAccesses, r.PerFrameRMW().MemAccesses
	return 1 - rmw/sw
}

// Measure runs both ordering implementations over nFrames frames with the
// given commit-run length and returns amortized per-frame costs.
func Measure(nFrames, runLength int) (Results, error) {
	if runLength <= 0 || nFrames <= 0 || nFrames%runLength != 0 {
		return Results{}, fmt.Errorf("fwkernels: nFrames %d must be a positive multiple of runLength %d", nFrames, runLength)
	}
	res := Results{RunLength: runLength}

	sw, err := loadKernel(swSource)
	if err != nil {
		return Results{}, err
	}
	var setTotal, commitTotal Cost
	frame := uint32(0)
	for b := 0; b < nFrames/runLength; b++ {
		for i := 0; i < runLength; i++ {
			c, err := sw.call("sw_set", frame)
			if err != nil {
				return Results{}, err
			}
			setTotal = addCost(setTotal, c)
			frame++
		}
		c, err := sw.call("sw_commit", 0)
		if err != nil {
			return Results{}, err
		}
		commitTotal = addCost(commitTotal, c)
	}
	res.SWSet = setTotal.Per(nFrames)
	res.SWCommit = commitTotal.Per(nFrames)

	rmw, err := loadKernel(rmwSource)
	if err != nil {
		return Results{}, err
	}
	setTotal, commitTotal = Cost{}, Cost{}
	frame = 0
	for b := 0; b < nFrames/runLength; b++ {
		for i := 0; i < runLength; i++ {
			c, err := rmw.call("rmw_set", frame)
			if err != nil {
				return Results{}, err
			}
			setTotal = addCost(setTotal, c)
			frame++
		}
		c, err := rmw.call("rmw_commit", 0)
		if err != nil {
			return Results{}, err
		}
		commitTotal = addCost(commitTotal, c)
	}
	res.RMWSet = setTotal.Per(nFrames)
	res.RMWCommit = commitTotal.Per(nFrames)
	return res, nil
}

// MustMeasure is Measure or panic, for initialization paths.
func MustMeasure(nFrames, runLength int) Results {
	r, err := Measure(nFrames, runLength)
	if err != nil {
		panic(err)
	}
	return r
}

func addCost(a, b Cost) Cost {
	return Cost{
		Instructions: a.Instructions + b.Instructions,
		Loads:        a.Loads + b.Loads,
		Stores:       a.Stores + b.Stores,
		RMWs:         a.RMWs + b.RMWs,
	}
}

// OrderingTrace returns a dynamic instruction trace of the software-only
// ordering kernels over nFrames frames, for the ILP limit analysis.
func OrderingTrace(nFrames, runLength int) ([]trace.Inst, error) {
	sw, err := loadKernel(swSource)
	if err != nil {
		return nil, err
	}
	var out []trace.Inst
	sw.cpu.Trace = func(r trace.Inst) { out = append(out, r) }
	frame := uint32(0)
	for b := 0; b < nFrames/runLength; b++ {
		for i := 0; i < runLength; i++ {
			if _, err := sw.call("sw_set", frame); err != nil {
				return nil, err
			}
			frame++
		}
		if _, err := sw.call("sw_commit", 0); err != nil {
			return nil, err
		}
	}
	return out, nil
}
