package mem

import (
	"repro/internal/fifo"
	"repro/internal/sim"
	"repro/internal/stats"
)

// SDRAM models the external graphics DDR SDRAM that holds frame contents,
// together with the 128-bit internal bus the PCI interface and MAC unit share
// to reach it.
//
// The device is 64 bits wide and double-data-rate, so at the bus frequency it
// moves two 64-bit values per cycle: 16 bytes per SDRAM-domain cycle, 64 Gb/s
// peak at 500 MHz. The four streaming assists buffer up to two maximum-sized
// frames each and transfer whole frames to consecutive addresses, so bursts
// sustain near-peak bandwidth and row activations are rare within a burst.
//
// Misaligned bursts waste bandwidth: transfers are rounded outward to 8-byte
// boundaries, and the wasted bytes are counted in consumed bandwidth exactly
// as the paper counts them ("this is lost SDRAM bandwidth that cannot be
// recovered, so it is counted in the totals").
//
// SDRAM is a sim.Sleeper registered in the SDRAM clock domain.
type SDRAM struct {
	openRow [sdramBanks]int64

	queues  [sdramPorts]fifo.Queue[Transfer]
	current Transfer
	active  bool
	// remaining cycles in the current burst, including activation overhead
	remaining int
	rr        int

	// UsefulBytes counts payload bytes moved; ConsumedBytes additionally
	// counts alignment waste. BusyCycles/Cycles give bus utilization.
	UsefulBytes   stats.Counter
	ConsumedBytes stats.Counter
	WastedBytes   stats.Counter
	Activations   stats.Counter
	Busy          stats.Utilization

	wake func() // the clock domain's wake function (sim.Sleeper)
}

// A Transfer is one burst between an assist and the SDRAM. When it
// finishes, Owner (if any) receives Tag.
type Transfer struct {
	Addr  uint32
	Len   int
	Write bool
	Tag   uint32
	Owner sim.Completer
}

// The fixed part, a Micron MT44H8M32-class GDDR device as in the paper: a
// 500 MHz bus shared by the four assists, four internal banks of 2 KB pages,
// and an activation penalty that yields worst-case latencies in the tens of
// cycles.
const (
	// SDRAMHz is the SDRAM clock domain's frequency.
	SDRAMHz = 500e6

	sdramPorts      = 4    // requesters: the four assists
	sdramRowBytes   = 2048 // bytes per row (page) per bank
	sdramBanks      = 4
	sdramActivateCy = 9 // cycles to precharge and activate on a row miss
)

// NewSDRAM creates the SDRAM model.
func NewSDRAM() *SDRAM {
	s := &SDRAM{}
	for i := range s.openRow {
		s.openRow[i] = -1
	}
	return s
}

// Enqueue adds a transfer to the given port's queue, waking the SDRAM's
// clock domain.
func (s *SDRAM) Enqueue(port int, t Transfer) {
	if s.wake != nil {
		s.wake()
	}
	s.queues[port].Push(t)
}

// QueueLen returns the number of transfers waiting (plus in progress) for a
// port.
func (s *SDRAM) QueueLen(port int) int { return s.queues[port].Len() }

// alignedLen returns the burst length after rounding the start down and the
// end up to 8-byte boundaries.
func alignedLen(addr uint32, n int) int {
	start := addr &^ 7
	end := (addr + uint32(n) + 7) &^ 7
	return int(end - start)
}

// Tick advances the SDRAM and its shared bus by one cycle.
func (s *SDRAM) Tick(cycle uint64) {
	s.Busy.Total.Inc()
	if !s.active {
		s.start()
	}
	if !s.active {
		return
	}
	s.Busy.Busy.Inc()
	s.remaining--
	if s.remaining == 0 {
		t := s.current
		s.current, s.active = Transfer{}, false
		if t.Owner != nil {
			t.Owner.Complete(t.Tag)
		}
		// Start the next burst immediately so back-to-back streams sustain
		// full bandwidth.
		s.start()
	}
}

// start pops the next transfer round-robin and computes its burst length.
func (s *SDRAM) start() {
	for i := 1; i <= len(s.queues); i++ {
		p := (s.rr + i) % len(s.queues)
		if s.queues[p].Len() == 0 {
			continue
		}
		t := s.queues[p].Pop()
		s.rr = p

		al := alignedLen(t.Addr, t.Len)
		dataCycles := (al + 15) / 16 // 16 bytes per DDR cycle on the 128-bit bus
		if dataCycles == 0 {
			dataCycles = 1
		}
		overhead := 0
		bank := int(t.Addr/sdramRowBytes) % sdramBanks
		row := int64(t.Addr) / sdramRowBytes / sdramBanks
		if s.openRow[bank] != row {
			overhead = sdramActivateCy
			s.openRow[bank] = row
			s.Activations.Inc()
		}
		s.UsefulBytes.Add(uint64(t.Len))
		s.ConsumedBytes.Add(uint64(al))
		s.WastedBytes.Add(uint64(al - t.Len))
		s.remaining = overhead + dataCycles
		s.current, s.active = t, true
		return
	}
}

// PeakGbps returns the SDRAM's peak bandwidth: 16 bytes per cycle.
func PeakGbps() float64 { return SDRAMHz * 16 * 8 / 1e9 }

// Sleep implements sim.Sleeper. An idle SDRAM sleeps until Enqueue wakes
// it; during a burst every cycle before the last only counts down.
func (s *SDRAM) Sleep() uint64 {
	if !s.active {
		return sim.UntilWoken // a tick that leaves the SDRAM idle found every queue empty
	}
	return uint64(s.remaining - 1)
}

// Skip implements sim.Sleeper: it replays the bookkeeping of n cycles the
// engine slept through, so utilization and the burst countdown match a
// fully ticked run.
func (s *SDRAM) Skip(n uint64) {
	s.Busy.Total.Add(n)
	if s.active {
		s.Busy.Busy.Add(n)
		s.remaining -= int(n)
	}
}

// SetWake implements sim.Sleeper.
func (s *SDRAM) SetWake(wake func()) { s.wake = wake }
