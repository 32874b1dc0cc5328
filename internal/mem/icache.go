package mem

import (
	"fmt"

	"repro/internal/sim"
	"repro/internal/stats"
)

// The paper's instruction-side geometry: each core's private instruction
// cache is 8 KB, two-way set associative, with 32-byte lines, filled over the
// shared instruction memory's 16-byte port after two access cycles.
const (
	icacheLineShift = 5
	icacheSetShift  = 7
	icacheSets      = 1 << icacheSetShift

	// ICacheLineBytes is the instruction cache's line size.
	ICacheLineBytes = 1 << icacheLineShift
	// ICacheWays is the instruction cache's associativity.
	ICacheWays = 2
	// ICacheBytes is each core's instruction cache capacity.
	ICacheBytes = ICacheWays * icacheSets * ICacheLineBytes

	imemAccessCy   = 2                    // cycles before a line transfer begins
	imemTransferCy = ICacheLineBytes / 16 // a line over the 128-bit port
)

// ICache models one core's private instruction cache with LRU replacement.
// Instructions are read-only and single-writer, so no coherence is needed.
//
// Tag and valid state are packed into one word per line (tag | icValid),
// stored in a flat array indexed set*2+way, so a probe is a single comparison
// per way and the set index is a shift and a mask. The cache is probed on
// every instruction of every core, so divisions, nested slices, and separate
// valid-bit loads all showed up in profiles.
type ICache struct {
	lines  [icacheSets * ICacheWays]uint64 // uint64(tag)|icValid, 0 = invalid
	lruWay [icacheSets]uint8               // the way to evict next
	// The line of the last hit or fill spans [lastBase, lastBase+lastSpan);
	// lastSpan is 0 before the first.
	lastBase, lastSpan uint32

	Hits   stats.Counter
	Misses stats.Counter
}

// icValid marks a packed cache line valid; it sits above any 32-bit tag, so a
// zero entry can never match a lookup.
const icValid = uint64(1) << 32

// NewICache creates an empty instruction cache.
func NewICache() *ICache { return &ICache{} }

// Lookup probes the cache for the line holding pc and updates LRU state on a
// hit. It does not fill on a miss; call Fill once the line arrives. The line
// of the last hit or fill is the most recently used of its set, so looking
// it up again only counts the hit.
func (c *ICache) Lookup(pc uint32) bool {
	if pc-c.lastBase < c.lastSpan {
		c.Hits.Inc()
		return true
	}
	return c.lookup(pc)
}

// setLast records the line holding pc as the last one hit or filled.
func (c *ICache) setLast(pc uint32) {
	c.lastBase = pc &^ (ICacheLineBytes - 1)
	c.lastSpan = ICacheLineBytes
}

// lookup is Lookup for a line other than the last one hit or filled.
func (c *ICache) lookup(pc uint32) bool {
	set, want := c.index(pc)
	switch want {
	case c.lines[2*set]:
		c.lruWay[set] = 1
	case c.lines[2*set+1]:
		c.lruWay[set] = 0
	default:
		c.Misses.Inc()
		return false
	}
	c.Hits.Inc()
	c.setLast(pc)
	return true
}

// HitN counts n fetches from the line holding pc, which must be cached,
// exactly as n lookups would.
func (c *ICache) HitN(pc uint32, n uint64) {
	if n == 0 {
		return
	}
	if !c.Lookup(pc) {
		panic(fmt.Sprintf("mem: icache HitN on uncached pc %#x", pc))
	}
	c.Hits.Add(n - 1)
}

// Line returns the number of the cache line holding pc.
func (c *ICache) Line(pc uint32) uint32 { return pc >> icacheLineShift }

// Probe reports whether the line holding pc is cached, without counting a
// hit or miss or touching LRU state.
func (c *ICache) Probe(pc uint32) bool {
	if pc-c.lastBase < c.lastSpan {
		return true
	}
	set, want := c.index(pc)
	return c.lines[2*set] == want || c.lines[2*set+1] == want
}

// Fill installs the line holding pc in an invalid way if its set has one,
// else in place of the set's least recently used line.
func (c *ICache) Fill(pc uint32) {
	set, want := c.index(pc)
	w := uint32(c.lruWay[set])
	switch {
	case c.lines[2*set] == 0:
		w = 0
	case c.lines[2*set+1] == 0:
		w = 1
	}
	c.lines[2*set+w] = want
	c.lruWay[set] = uint8(1 - w)
	c.setLast(pc)
}

// index returns the set that holds pc's line and the entry the line has
// there when cached.
func (c *ICache) index(pc uint32) (set uint32, want uint64) {
	line := pc >> icacheLineShift
	return line & (icacheSets - 1), uint64(line>>icacheSetShift) | icValid
}

// InstrMemory models the shared 128-bit instruction memory port that fills
// the per-core instruction caches. One fill is serviced at a time; cores wait
// round-robin. A line fill occupies the port for imemAccessCy +
// imemTransferCy cycles (2 + 2: 32 B over a 16 B/cycle port).
//
// InstrMemory is a sim.Sleeper in the CPU clock domain, registered after
// the cores.
type InstrMemory struct {
	// pending is a head-indexed FIFO: popping advances phead so the backing
	// array is reused instead of reallocated.
	pending  []fillReq
	phead    int
	busy     int // cycles remaining on current fill
	current  fillReq
	hasCur   bool
	wake     func() // the clock domain's wake function (sim.Sleeper)
	PortBusy stats.Utilization
	Fills    stats.Counter
}

type fillReq struct {
	core   int
	onDone func()
}

// NewInstrMemory creates the shared instruction memory.
func NewInstrMemory() *InstrMemory { return &InstrMemory{} }

// RequestFill enqueues a line fill for a core; onDone is called during the
// tick the fill completes.
func (m *InstrMemory) RequestFill(core int, onDone func()) {
	if m.wake != nil {
		m.wake()
	}
	m.pending = append(m.pending, fillReq{core: core, onDone: onDone})
}

// Tick advances the instruction memory port one CPU cycle.
func (m *InstrMemory) Tick(cycle uint64) {
	m.PortBusy.Total.Inc()
	if !m.hasCur && m.phead < len(m.pending) {
		m.current = m.pending[m.phead]
		m.pending[m.phead] = fillReq{}
		m.phead++
		if m.phead == len(m.pending) {
			m.pending, m.phead = m.pending[:0], 0
		}
		m.hasCur = true
		m.busy = imemAccessCy + imemTransferCy
	}
	if !m.hasCur {
		return
	}
	// Only the transfer cycles occupy the 128-bit port; the access cycles
	// are internal to the memory array.
	if m.busy <= imemTransferCy {
		m.PortBusy.Busy.Inc()
	}
	m.busy--
	if m.busy == 0 {
		done := m.current.onDone
		m.hasCur = false
		m.Fills.Inc()
		if done != nil {
			done()
		}
	}
}

// Sleep implements sim.Sleeper: the port sleeps through a fill's countdown
// and, idle, until RequestFill wakes it.
func (m *InstrMemory) Sleep() uint64 {
	switch {
	case m.hasCur:
		return uint64(m.busy - 1)
	case m.phead < len(m.pending):
		return 0
	}
	return sim.UntilWoken
}

// Skip implements sim.Sleeper: it replays n cycles of the port's
// utilization and the current fill's countdown.
func (m *InstrMemory) Skip(n uint64) {
	m.PortBusy.Total.Add(n)
	if !m.hasCur {
		return
	}
	// The skipped cycles count busy from m.busy down to m.busy-n+1; those at
	// or below imemTransferCy are transfer cycles.
	if hi, lo := min(m.busy, imemTransferCy), m.busy-int(n)+1; hi >= lo {
		m.PortBusy.Busy.Add(uint64(hi - lo + 1))
	}
	m.busy -= int(n)
}

// SetWake implements sim.Sleeper.
func (m *InstrMemory) SetWake(wake func()) { m.wake = wake }
