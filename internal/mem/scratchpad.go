// Package mem models the NIC controller's partitioned memory system: the
// banked on-chip scratchpad and its 32-bit crossbar, the external GDDR SDRAM
// used only for frame contents, the shared instruction memory with per-core
// instruction caches, and the status-flag bit array manipulated by the
// paper's atomic set/update read-modify-write instructions.
package mem

import (
	"fmt"

	"repro/internal/stats"
)

// ScratchpadBytes is the on-chip scratchpad's capacity in the paper.
const ScratchpadBytes = 256 * 1024

// The scratchpad's words are stored in pages of scratchPageBytes, allocated
// on first write. Only lock words and status-flag arrays carry functional
// values; every other access is counted for timing alone, so most of the
// 256 KB is never written and costs the simulator no memory.
const (
	scratchPageBytes = 1024
	scratchPageWords = scratchPageBytes / 4
)

type scratchPage [scratchPageWords]uint32

// Scratchpad models the on-chip control-data SRAM: ScratchpadBytes divided
// into S independent single-ported banks, each able to service one 32-bit
// transaction per CPU cycle. Words are interleaved across banks so that
// sequential addresses hit different banks.
//
// Scratchpad provides functional 32-bit storage; access *timing* (the
// two-cycle latency and bank-conflict queueing) is modeled by Crossbar.
// A word never written reads 0, as after a reset.
type Scratchpad struct {
	pages    [ScratchpadBytes / scratchPageBytes]*scratchPage // nil until written
	bankMask uint32                                           // banks-1; the bank count is a power of two

	// Reads and Writes count accesses per bank for bandwidth reporting.
	Reads  []stats.Counter
	Writes []stats.Counter
}

// NewScratchpad creates the scratchpad split into the given number of banks,
// which must be a power of two.
func NewScratchpad(banks int) *Scratchpad {
	if banks <= 0 || banks&(banks-1) != 0 || banks > ScratchpadBytes/4 {
		panic(fmt.Sprintf("mem: %d scratchpad banks is not a power of two of at most %d", banks, ScratchpadBytes/4))
	}
	return &Scratchpad{
		bankMask: uint32(banks - 1),
		Reads:    make([]stats.Counter, banks),
		Writes:   make([]stats.Counter, banks),
	}
}

// Bank returns the bank servicing the given byte address. Words are
// interleaved across banks: word i lives in bank i mod S.
func (s *Scratchpad) Bank(addr uint32) int { return int(addr >> 2 & s.bankMask) }

// Read32 returns the aligned 32-bit word at the given byte address and
// records the access against its bank.
func (s *Scratchpad) Read32(addr uint32) uint32 {
	i := s.index(addr)
	s.Reads[i&s.bankMask].Inc()
	return s.load(i)
}

// Write32 stores an aligned 32-bit word and records the access.
func (s *Scratchpad) Write32(addr uint32, v uint32) {
	i := s.index(addr)
	s.Writes[i&s.bankMask].Inc()
	s.store(i, v)
}

// CountRead records a read access against addr's bank without returning
// data; timing models use it when the functional value lives elsewhere.
func (s *Scratchpad) CountRead(addr uint32) {
	s.Reads[s.index(addr)&s.bankMask].Inc()
}

// CountWrite records a write access against addr's bank without mutating the
// word. Timing models use it for stores whose functional effect is carried
// out of band (or not at all), so that status flags and lock words are never
// clobbered by generic store traffic.
func (s *Scratchpad) CountWrite(addr uint32) {
	s.Writes[s.index(addr)&s.bankMask].Inc()
}

// Peek32 reads a word without recording an access; for debugging and tests.
func (s *Scratchpad) Peek32(addr uint32) uint32 { return s.load(s.index(addr)) }

// Poke32 writes a word without recording an access; for initialization.
func (s *Scratchpad) Poke32(addr uint32, v uint32) { s.store(s.index(addr), v) }

// TotalAccesses returns the number of recorded reads and writes across all
// banks.
func (s *Scratchpad) TotalAccesses() (reads, writes uint64) {
	for i := range s.Reads {
		reads += s.Reads[i].Value()
		writes += s.Writes[i].Value()
	}
	return reads, writes
}

// load returns word i, 0 when its page was never written.
func (s *Scratchpad) load(i uint32) uint32 {
	if p := s.pages[i/scratchPageWords]; p != nil {
		return p[i%scratchPageWords]
	}
	return 0
}

// store sets word i, allocating its page on the first write.
func (s *Scratchpad) store(i, v uint32) {
	p := s.pages[i/scratchPageWords]
	if p == nil {
		p = new(scratchPage)
		s.pages[i/scratchPageWords] = p
	}
	p[i%scratchPageWords] = v
}

func (s *Scratchpad) index(addr uint32) uint32 {
	if addr%4 != 0 {
		panic(fmt.Sprintf("mem: unaligned scratchpad access at %#x", addr))
	}
	i := addr / 4
	if i >= ScratchpadBytes/4 {
		panic(fmt.Sprintf("mem: scratchpad access at %#x beyond capacity %d", addr, ScratchpadBytes))
	}
	return i
}
