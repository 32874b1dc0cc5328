// Package vm is a functional interpreter for the MIPS-subset ISA, including
// the paper's atomic set and update read-modify-write instructions.
//
// The interpreter serves two purposes in the reproduction. First, the
// firmware ordering kernels (lock-based vs RMW-enhanced) execute on it, and
// their measured dynamic instruction and memory-access counts parameterize
// the NIC timing model, grounding the Table 5 comparison in real code.
// Second, it emits the dynamic instruction traces consumed by the ILP limit
// analyzer that regenerates Table 2.
//
// The machine is little-endian with a single branch delay slot, matching the
// R4000 pipeline the paper compiled its firmware for (modulo endianness,
// which is immaterial to timing).
package vm

import (
	"encoding/binary"
	"fmt"

	"repro/internal/asm"
	"repro/internal/isa"
	"repro/internal/trace"
)

// CPU is one interpreter instance.
type CPU struct {
	Regs [32]uint32
	PC   uint32

	// HI and LO are the multiply/divide result registers.
	HI, LO uint32

	mem      []byte
	npc      uint32
	halted   bool
	llActive bool
	llAddr   uint32
	updHead  map[uint32]uint32 // RMW array base -> next expected bit

	// Trace, when non-nil, receives every retired instruction.
	Trace func(trace.Inst)

	// Instructions counts retired instructions; Loads/Stores/RMWs count
	// data memory accesses by kind.
	Instructions uint64
	Loads        uint64
	Stores       uint64
	RMWs         uint64
}

// New creates a CPU with the given memory size in bytes.
func New(memSize int) *CPU {
	return &CPU{mem: make([]byte, memSize), updHead: map[uint32]uint32{}}
}

// Load copies an assembled program into memory and points the PC at its
// base.
func (c *CPU) Load(p *asm.Program) error {
	end := int(p.Base) + 4*len(p.Words)
	if end > len(c.mem) {
		return fmt.Errorf("vm: program end %#x beyond memory size %#x", end, len(c.mem))
	}
	for i, w := range p.Words {
		binary.LittleEndian.PutUint32(c.mem[int(p.Base)+4*i:], w)
	}
	c.PC = p.Base
	c.npc = p.Base + 4
	c.halted = false
	return nil
}

// Jump redirects execution to addr, clearing any halt. Measurement harnesses
// use it to call routines repeatedly on one machine state.
func (c *CPU) Jump(addr uint32) error {
	if addr%4 != 0 || int(addr)+4 > len(c.mem) {
		return fmt.Errorf("vm: bad jump to %#x", addr)
	}
	c.PC = addr
	c.npc = addr + 4
	c.halted = false
	return nil
}

// Read32 reads an aligned word from memory.
func (c *CPU) Read32(addr uint32) (uint32, error) {
	if addr%4 != 0 || int(addr)+4 > len(c.mem) {
		return 0, fmt.Errorf("vm: bad read at %#x", addr)
	}
	return binary.LittleEndian.Uint32(c.mem[addr:]), nil
}

// Write32 writes an aligned word to memory.
func (c *CPU) Write32(addr uint32, v uint32) error {
	if addr%4 != 0 || int(addr)+4 > len(c.mem) {
		return fmt.Errorf("vm: bad write at %#x", addr)
	}
	binary.LittleEndian.PutUint32(c.mem[addr:], v)
	return nil
}

// Read8 reads a byte from memory.
func (c *CPU) Read8(addr uint32) (byte, error) {
	if int(addr) >= len(c.mem) {
		return 0, fmt.Errorf("vm: bad byte read at %#x", addr)
	}
	return c.mem[addr], nil
}

// Write8 writes a byte to memory.
func (c *CPU) Write8(addr uint32, v byte) error {
	if int(addr) >= len(c.mem) {
		return fmt.Errorf("vm: bad byte write at %#x", addr)
	}
	c.mem[addr] = v
	return nil
}

// Read16 reads an aligned halfword.
func (c *CPU) Read16(addr uint32) (uint16, error) {
	if addr%2 != 0 || int(addr)+2 > len(c.mem) {
		return 0, fmt.Errorf("vm: bad halfword read at %#x", addr)
	}
	return binary.LittleEndian.Uint16(c.mem[addr:]), nil
}

// Write16 writes an aligned halfword.
func (c *CPU) Write16(addr uint32, v uint16) error {
	if addr%2 != 0 || int(addr)+2 > len(c.mem) {
		return fmt.Errorf("vm: bad halfword write at %#x", addr)
	}
	binary.LittleEndian.PutUint16(c.mem[addr:], v)
	return nil
}

// Step executes one instruction. It returns an error on decode or memory
// faults; executing while halted is an error.
func (c *CPU) Step() error {
	if c.halted {
		return fmt.Errorf("vm: step while halted")
	}
	w, err := c.Read32(c.PC)
	if err != nil {
		return fmt.Errorf("vm: fetch: %w", err)
	}
	in, err := isa.Decode(w)
	if err != nil {
		return fmt.Errorf("vm: at %#x: %w", c.PC, err)
	}
	curPC := c.PC
	c.PC = c.npc
	c.npc = c.PC + 4

	rec := trace.Inst{PC: curPC, Kind: trace.ALU, Dst: -1, Src1: -1, Src2: -1}
	setDst := func(r int, v uint32) {
		if r != 0 {
			c.Regs[r] = v
			rec.Dst = int8(r)
		}
	}
	src1 := func(r int) uint32 {
		if r != 0 {
			rec.Src1 = int8(r)
		}
		return c.Regs[r]
	}
	src2 := func(r int) uint32 {
		if r != 0 {
			rec.Src2 = int8(r)
		}
		return c.Regs[r]
	}
	branch := func(taken bool) {
		rec.Kind = trace.Branch
		rec.Taken = taken
		if taken {
			c.npc = isa.BranchTarget(curPC, in.Imm)
		}
	}

	switch in.Op {
	case isa.SLL:
		setDst(in.Rd, src2(in.Rt)<<uint(in.Shamt))
	case isa.SRL:
		setDst(in.Rd, src2(in.Rt)>>uint(in.Shamt))
	case isa.SRA:
		setDst(in.Rd, uint32(int32(src2(in.Rt))>>uint(in.Shamt)))
	case isa.SLLV:
		setDst(in.Rd, src2(in.Rt)<<(src1(in.Rs)&31))
	case isa.SRLV:
		setDst(in.Rd, src2(in.Rt)>>(src1(in.Rs)&31))
	case isa.SRAV:
		setDst(in.Rd, uint32(int32(src2(in.Rt))>>(src1(in.Rs)&31)))
	case isa.ADDU:
		setDst(in.Rd, src1(in.Rs)+src2(in.Rt))
	case isa.SUBU:
		setDst(in.Rd, src1(in.Rs)-src2(in.Rt))
	case isa.AND:
		setDst(in.Rd, src1(in.Rs)&src2(in.Rt))
	case isa.OR:
		setDst(in.Rd, src1(in.Rs)|src2(in.Rt))
	case isa.XOR:
		setDst(in.Rd, src1(in.Rs)^src2(in.Rt))
	case isa.NOR:
		setDst(in.Rd, ^(src1(in.Rs) | src2(in.Rt)))
	case isa.SLT:
		setDst(in.Rd, b2u(int32(src1(in.Rs)) < int32(src2(in.Rt))))
	case isa.SLTU:
		setDst(in.Rd, b2u(src1(in.Rs) < src2(in.Rt)))
	case isa.ADDIU:
		setDst(in.Rt, src1(in.Rs)+uint32(in.Imm))
	case isa.SLTI:
		setDst(in.Rt, b2u(int32(src1(in.Rs)) < in.Imm))
	case isa.SLTIU:
		setDst(in.Rt, b2u(src1(in.Rs) < uint32(in.Imm)))
	case isa.ANDI:
		setDst(in.Rt, src1(in.Rs)&uint32(in.Imm))
	case isa.ORI:
		setDst(in.Rt, src1(in.Rs)|uint32(in.Imm))
	case isa.XORI:
		setDst(in.Rt, src1(in.Rs)^uint32(in.Imm))
	case isa.LUI:
		setDst(in.Rt, uint32(in.Imm)<<16)
	case isa.LW, isa.LL:
		addr := src1(in.Rs) + uint32(in.Imm)
		v, err := c.Read32(addr)
		if err != nil {
			return err
		}
		setDst(in.Rt, v)
		rec.Kind = trace.Load
		rec.Addr = addr
		c.Loads++
		if in.Op == isa.LL {
			c.llActive = true
			c.llAddr = addr
		}
	case isa.SW:
		addr := src1(in.Rs) + uint32(in.Imm)
		if err := c.Write32(addr, src2(in.Rt)); err != nil {
			return err
		}
		rec.Kind = trace.Store
		rec.Addr = addr
		c.Stores++
		if c.llActive && addr == c.llAddr {
			c.llActive = false
		}
	case isa.SC:
		addr := src1(in.Rs) + uint32(in.Imm)
		rec.Kind = trace.Store
		rec.Addr = addr
		c.Stores++
		if c.llActive && c.llAddr == addr {
			if err := c.Write32(addr, src2(in.Rt)); err != nil {
				return err
			}
			c.llActive = false
			setDst(in.Rt, 1)
		} else {
			setDst(in.Rt, 0)
		}
	case isa.LB, isa.LBU:
		addr := src1(in.Rs) + uint32(in.Imm)
		v, err := c.Read8(addr)
		if err != nil {
			return err
		}
		if in.Op == isa.LB {
			setDst(in.Rt, uint32(int32(int8(v))))
		} else {
			setDst(in.Rt, uint32(v))
		}
		rec.Kind = trace.Load
		rec.Addr = addr
		c.Loads++
	case isa.LH, isa.LHU:
		addr := src1(in.Rs) + uint32(in.Imm)
		v, err := c.Read16(addr)
		if err != nil {
			return err
		}
		if in.Op == isa.LH {
			setDst(in.Rt, uint32(int32(int16(v))))
		} else {
			setDst(in.Rt, uint32(v))
		}
		rec.Kind = trace.Load
		rec.Addr = addr
		c.Loads++
	case isa.SB:
		addr := src1(in.Rs) + uint32(in.Imm)
		if err := c.Write8(addr, byte(src2(in.Rt))); err != nil {
			return err
		}
		rec.Kind = trace.Store
		rec.Addr = addr
		c.Stores++
	case isa.SH:
		addr := src1(in.Rs) + uint32(in.Imm)
		if err := c.Write16(addr, uint16(src2(in.Rt))); err != nil {
			return err
		}
		rec.Kind = trace.Store
		rec.Addr = addr
		c.Stores++
	case isa.MULT:
		p := int64(int32(src1(in.Rs))) * int64(int32(src2(in.Rt)))
		c.LO = uint32(p)
		c.HI = uint32(p >> 32)
	case isa.MULTU:
		p := uint64(src1(in.Rs)) * uint64(src2(in.Rt))
		c.LO = uint32(p)
		c.HI = uint32(p >> 32)
	case isa.DIV:
		d := int32(src2(in.Rt))
		if d != 0 {
			n := int32(src1(in.Rs))
			c.LO = uint32(n / d)
			c.HI = uint32(n % d)
		}
	case isa.DIVU:
		d := src2(in.Rt)
		if d != 0 {
			n := src1(in.Rs)
			c.LO = n / d
			c.HI = n % d
		}
	case isa.MFHI:
		setDst(in.Rd, c.HI)
	case isa.MFLO:
		setDst(in.Rd, c.LO)
	case isa.BLTZ:
		branch(int32(src1(in.Rs)) < 0)
	case isa.BGEZ:
		branch(int32(src1(in.Rs)) >= 0)
	case isa.BEQ:
		branch(src1(in.Rs) == src2(in.Rt))
	case isa.BNE:
		branch(src1(in.Rs) != src2(in.Rt))
	case isa.BLEZ:
		branch(int32(src1(in.Rs)) <= 0)
	case isa.BGTZ:
		branch(int32(src1(in.Rs)) > 0)
	case isa.J:
		rec.Kind = trace.Jump
		c.npc = in.Target << 2
	case isa.JAL:
		rec.Kind = trace.Jump
		setDst(31, curPC+8)
		c.npc = in.Target << 2
	case isa.JR:
		rec.Kind = trace.Jump
		c.npc = src1(in.Rs)
	case isa.JALR:
		rec.Kind = trace.Jump
		t := src1(in.Rs)
		setDst(in.Rd, curPC+8)
		c.npc = t
	case isa.BREAK:
		// break halts the machine without retiring: it is the measurement
		// harness's return trampoline, not firmware work, so it is excluded
		// from instruction counts and traces.
		c.halted = true
		return nil
	case isa.SETB:
		base := src1(in.Rs)
		idx := src2(in.Rt)
		addr := base + (idx/32)*4
		v, err := c.Read32(addr)
		if err != nil {
			return err
		}
		if err := c.Write32(addr, v|1<<(idx%32)); err != nil {
			return err
		}
		rec.Kind = trace.RMW
		rec.Addr = addr
		c.RMWs++
	case isa.UPD:
		base := src1(in.Rs)
		head := c.updHead[base]
		addr := base + (head/32)*4
		v, err := c.Read32(addr)
		if err != nil {
			return err
		}
		bit := head % 32
		n := uint32(0)
		for bit+n < 32 && v&(1<<(bit+n)) != 0 {
			v &^= 1 << (bit + n)
			n++
		}
		if n > 0 {
			if err := c.Write32(addr, v); err != nil {
				return err
			}
			c.updHead[base] = head + n
			setDst(in.Rd, head+n-1)
		} else {
			setDst(in.Rd, 0xffffffff)
		}
		rec.Kind = trace.RMW
		rec.Addr = addr
		c.RMWs++
	default:
		return fmt.Errorf("vm: at %#x: unimplemented op %v", curPC, in.Op)
	}

	c.Instructions++
	if c.Trace != nil {
		c.Trace(rec)
	}
	return nil
}

// Run executes until break or maxSteps instructions; it reports whether the
// program halted cleanly.
func (c *CPU) Run(maxSteps uint64) (bool, error) {
	for i := uint64(0); i < maxSteps; i++ {
		if c.halted {
			return true, nil
		}
		if err := c.Step(); err != nil {
			return false, err
		}
	}
	return c.halted, nil
}

func b2u(b bool) uint32 {
	if b {
		return 1
	}
	return 0
}
