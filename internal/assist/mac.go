package assist

import (
	"repro/internal/ethernet"
	"repro/internal/fifo"
	"repro/internal/mem"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/stats"
)

// BytesPerMACCycle is the wire datapath width: the MAC domain runs at
// 156.25 MHz moving 8 bytes per cycle, exactly 10 Gb/s.
const BytesPerMACCycle = 8

// MACHz is the MAC clock domain frequency.
const MACHz = ethernet.LinkBitsPerSec / 8 / BytesPerMACCycle

// wireOverhead is the preamble plus interframe gap charged to every frame.
const wireOverhead = ethernet.PreambleBytes + ethernet.InterframeGapBytes

// The MAC engines' completion tags: the progress-pointer write, and the
// frame's SDRAM burst (fetched on transmit, landed on receive).
const (
	tagProgress = iota + 1
	tagBurst
)

// MACTx is the transmit half of the MAC unit: it fetches committed frames
// from the SDRAM transmit buffer into a two-frame staging buffer and clocks
// them onto the wire.
//
// Register MACTx itself in the CPU domain (Tick pumps the scratchpad port)
// and TxWire in the MAC domain (wire pacing).
type MACTx struct {
	Port      *ScratchPort
	sdram     *mem.SDRAM
	sdramPort int

	ProgressAddr uint32
	Progress     stats.Counter

	// OnTransmit fires when a frame's last byte leaves the wire.
	OnTransmit func(handle any)

	// Obs, when non-nil, records each frame's wire occupancy as a span on
	// ObsTrack. Purely observational.
	Obs      *obs.Recorder
	ObsTrack int32

	queue    fifo.Queue[txFrame] // committed, not yet fetched
	staged   fifo.Queue[txFrame] // fetched into the MAC buffer (max 2)
	fetch    txFrame             // being fetched from SDRAM
	fetching bool

	wireRemain int     // bytes left of the frame currently on the wire
	cur        txFrame // the frame currently on the wire
	wakeWire   func()  // the MAC domain's wake function (TxWire)
	wakeCPU    func()  // the CPU domain's wake function (MACTx)

	TxFrames stats.Counter
	TxBytes  stats.Counter // wire payload bytes (frame incl. CRC)
	WireBusy stats.Utilization
}

type txFrame struct {
	bufAddr uint32
	size    int // frame size incl. CRC
	handle  any
}

// NewMACTx creates the transmit engine.
func NewMACTx(port *ScratchPort, sdram *mem.SDRAM, sdramPort int, progressAddr uint32) *MACTx {
	m := &MACTx{Port: port, sdram: sdram, sdramPort: sdramPort, ProgressAddr: progressAddr}
	port.owner = m
	return m
}

// Send queues one committed frame for transmission.
func (m *MACTx) Send(bufAddr uint32, size int, handle any) {
	m.wakeFetch()
	m.queue.Push(txFrame{bufAddr: bufAddr, size: size, handle: handle})
}

// canFetch reports whether Tick would start an SDRAM fetch. Only Send,
// a finished fetch and the wire taking a staged frame make it true.
func (m *MACTx) canFetch() bool { return !m.fetching && m.queue.Len() > 0 && m.staged.Len() < 2 }

// wakeFetch wakes the CPU side, which may be asleep on a state that is about
// to allow a fetch.
func (m *MACTx) wakeFetch() {
	if m.wakeCPU != nil {
		m.wakeCPU()
	}
}

// Backlog reports frames committed but not yet fully transmitted: queued,
// being fetched from SDRAM, staged, or partially on the wire.
func (m *MACTx) Backlog() int {
	n := m.queue.Len() + m.staged.Len()
	if m.fetching {
		n++
	}
	if m.wireRemain > 0 {
		n++
	}
	return n
}

// Tick starts SDRAM fetches (double buffered) and pumps the port: the
// transmit half's CPU-domain side.
//
//nic:hotpath
func (m *MACTx) Tick(cycle uint64) {
	if m.canFetch() {
		m.fetch = m.queue.Pop()
		m.fetching = true
		m.sdram.Enqueue(m.sdramPort, mem.Transfer{Addr: m.fetch.bufAddr, Len: m.fetch.size, Owner: m, Tag: tagBurst})
	}
	m.Port.Tick(cycle)
}

// Complete implements sim.Completer: a progress write or the frame fetch
// finished.
//
//nic:hotpath
func (m *MACTx) Complete(tag uint32) {
	if tag == tagProgress {
		m.Progress.Inc()
		return
	}
	m.wakeFetch()
	m.staged.Push(m.fetch)
	m.fetching = false
	if m.wakeWire != nil {
		m.wakeWire()
	}
}

// Sleep implements sim.Sleeper for the CPU side: it sleeps until a fetch or
// a scratchpad access can start.
func (m *MACTx) Sleep() uint64 { return sleepUnless(m.canFetch() || !m.Port.idle()) }

// Skip implements sim.Sleeper; there is nothing to replay.
func (m *MACTx) Skip(uint64) {}

// SetWake implements sim.Sleeper.
func (m *MACTx) SetWake(wake func()) { m.wakeCPU, m.Port.wake = wake, wake }

// TickMAC advances the wire by BytesPerMACCycle.
func (m *MACTx) TickMAC(cycle uint64) {
	m.WireBusy.Total.Inc()
	if m.wireRemain == 0 {
		if m.staged.Len() == 0 {
			return
		}
		m.wakeFetch()
		f := m.staged.Pop()
		m.wireRemain = f.size + wireOverhead
		m.cur = f
		m.Obs.Begin(m.ObsTrack, "tx frame")
	}
	m.WireBusy.Busy.Inc()
	m.wireRemain -= BytesPerMACCycle
	if m.wireRemain <= 0 {
		m.wireRemain = 0
		f := m.cur
		m.Obs.End(m.ObsTrack, "tx frame")
		m.TxFrames.Inc()
		m.TxBytes.Add(uint64(f.size))
		m.Port.Write(m.ProgressAddr, tagProgress)
		if m.OnTransmit != nil {
			m.OnTransmit(f.handle)
		}
	}
}

// NetworkSource supplies the receive workload: Next returns the next frame
// on the wire when the link is ready for one, or ok=false when the source is
// idle this instant.
type NetworkSource interface {
	Next() (size int, handle any, ok bool)
}

// RxFrameMeta is the optional wire-level metadata a workload's frame handles
// may expose to the MAC receive path: a failing frame check sequence and the
// destination address (ok=false when the workload does not address frames,
// in which case address filtering passes them). Handles without the
// interface are treated as well-formed station-addressed frames, so the
// paper's baseline workloads are untouched.
type RxFrameMeta interface {
	RxBadCRC() bool
	RxDst() (ethernet.MAC, bool)
}

// MACRx is the receive half: frames arrive paced by the wire, land in a
// two-frame staging buffer, and are written to the SDRAM receive buffer at
// an address chosen by the allocation callback. When the receive buffer has
// no space the frame is dropped, as on the real controller.
//
// Before staging, every arriving frame passes deterministic wire-validity
// checks — runt, oversize, bad CRC, address filter — and malformed frames
// are dropped and counted per class without ever reaching firmware, exactly
// as a hardware MAC discards them before DMA.
type MACRx struct {
	Port      *ScratchPort
	sdram     *mem.SDRAM
	sdramPort int

	ProgressAddr uint32
	Progress     stats.Counter

	// Source provides arriving frames.
	Source NetworkSource
	// Alloc chooses the SDRAM address for an arriving frame; ok=false drops
	// it (receive buffer exhausted).
	Alloc func(size int, handle any) (bufAddr uint32, ok bool)
	// OnReceive fires when a frame is fully in the SDRAM receive buffer.
	// queue is the RSS receive queue the frame was steered to (always 0
	// with a single queue).
	OnReceive func(bufAddr uint32, size int, handle any, queue int)
	// OnDrop, when non-nil, receives every arriving frame's handle that the
	// MAC discards, once the drop is counted; the MAC holds none afterwards.
	OnDrop func(handle any)

	// Queues is the number of RSS receive queues frames are steered across;
	// zero or one disables steering (every frame lands on queue 0, and the
	// flow hash is never computed — the seed single-queue path).
	Queues int
	// Steer selects the queue for each admitted frame from its flow hash;
	// nil falls back to static hash-mod steering.
	Steer Steering
	// QueueFrames/QueueDrops, when sized by the integration layer, count
	// accepted frames and buffer-exhaustion drops per receive queue.
	QueueFrames []stats.Counter
	QueueDrops  []stats.Counter
	// FaultVerdict, when non-nil, is consulted per arriving frame before
	// staging: RxFaultDrop models a frame lost on the wire, RxFaultCorrupt a
	// frame arriving with a bad CRC. Both are discarded by the MAC before
	// firmware sees them and counted separately from buffer-exhaustion Drops.
	FaultVerdict func(size int) int

	// MaxFrame is the largest acceptable frame size; zero means the standard
	// ethernet.MaxFrame. Jumbo-enabled builds raise it to
	// ethernet.JumboMaxFrame.
	MaxFrame int
	// Filter, when non-nil, is the receive address filter: frames whose
	// destination it rejects are dropped and counted as FilteredDrops.
	Filter *ethernet.AddressFilter

	// Obs, when non-nil, records wire occupancy spans on ObsTrack and each
	// accepted frame's arrival instant as its receive-latency origin.
	Obs      *obs.Recorder
	ObsTrack int32

	wireRemain int
	curSize    int
	curHandle  any
	// staged holds the frames in the staging buffer, their SDRAM writes
	// outstanding; the port's FIFO completes them in order.
	staged fifo.Queue[rxFrame]

	RxFrames     stats.Counter
	RxBytes      stats.Counter
	Drops        stats.Counter
	WireDrops    stats.Counter // injected wire losses
	CorruptDrops stats.Counter // injected CRC failures
	WireBusy     stats.Utilization

	// Per-class malformed-frame reject counters (wire-validity checks).
	RuntDrops     stats.Counter // shorter than the Ethernet minimum
	OversizeDrops stats.Counter // longer than MaxFrame
	BadCRCDrops   stats.Counter // arriving frame check sequence failed
	FilteredDrops stats.Counter // destination rejected by the address filter
}

// rxFrame is one accepted frame landing in the SDRAM receive buffer.
type rxFrame struct {
	addr   uint32
	size   int
	handle any
	q      int
}

// FaultVerdict results.
const (
	RxFaultPass = iota
	RxFaultDrop
	RxFaultCorrupt
)

// NewMACRx creates the receive engine.
func NewMACRx(port *ScratchPort, sdram *mem.SDRAM, sdramPort int, progressAddr uint32) *MACRx {
	m := &MACRx{Port: port, sdram: sdram, sdramPort: sdramPort, ProgressAddr: progressAddr}
	port.owner = m
	return m
}

// Staged reports frames sitting in the staging buffer awaiting their SDRAM
// write (accepted but not yet delivered to firmware); for invariant checks.
func (m *MACRx) Staged() int { return m.staged.Len() }

// Tick pumps the scratchpad port: the receive half's CPU-domain side.
func (m *MACRx) Tick(cycle uint64) { m.Port.Tick(cycle) }

// Sleep implements sim.Sleeper for the CPU side: it sleeps until a
// scratchpad access can start.
func (m *MACRx) Sleep() uint64 { return sleepUnless(!m.Port.idle()) }

// Skip implements sim.Sleeper; there is nothing to replay.
func (m *MACRx) Skip(uint64) {}

// SetWake implements sim.Sleeper.
func (m *MACRx) SetWake(wake func()) { m.Port.wake = wake }

// TickMAC advances the receive wire.
func (m *MACRx) TickMAC(cycle uint64) {
	m.WireBusy.Total.Inc()
	if m.wireRemain == 0 {
		if m.Source == nil {
			return
		}
		size, handle, ok := m.Source.Next()
		if !ok {
			return
		}
		m.wireRemain = size + wireOverhead
		m.curSize = size
		m.curHandle = handle
		m.Obs.Begin(m.ObsTrack, "rx frame")
	}
	m.WireBusy.Busy.Inc()
	m.wireRemain -= BytesPerMACCycle
	if m.wireRemain <= 0 {
		m.wireRemain = 0
		m.Obs.End(m.ObsTrack, "rx frame")
		m.frameArrived(m.curSize, m.curHandle)
	}
}

// frameArrived lands a complete frame in the staging buffer and starts its
// SDRAM write; the staging buffer holds two frames, beyond which arrivals
// drop (the SDRAM or allocation is the bottleneck).
func (m *MACRx) frameArrived(size int, handle any) {
	if m.FaultVerdict != nil {
		switch m.FaultVerdict(size) {
		case RxFaultDrop:
			m.WireDrops.Inc()
			m.drop(handle)
			return
		case RxFaultCorrupt:
			m.CorruptDrops.Inc()
			m.drop(handle)
			return
		}
	}
	if !m.admit(size, handle) {
		m.drop(handle)
		return
	}
	// Steering happens after admission, exactly where a hardware RSS stage
	// sits: malformed frames never consume a hash, and buffer-exhaustion
	// drops are attributed to the queue the frame would have landed on.
	q := m.queueFor(handle)
	if m.staged.Len() >= 2 || m.Alloc == nil {
		m.dropQ(q, handle)
		return
	}
	addr, ok := m.Alloc(size, handle)
	if !ok {
		m.dropQ(q, handle)
		return
	}
	m.staged.Push(rxFrame{addr: addr, size: size, handle: handle, q: q})
	m.RxFrames.Inc()
	m.RxBytes.Add(uint64(size))
	if q < len(m.QueueFrames) {
		m.QueueFrames[q].Inc()
	}
	// The frame is accepted: this instant is its receive-latency origin.
	// Accepted frames always reach OnReceive (the SDRAM write cannot fail)
	// and acquire firmware indices in this order, so the origin FIFO pairing
	// in the recorder is exact.
	m.Obs.FrameOrigin(obs.Recv)
	m.sdram.Enqueue(m.sdramPort, mem.Transfer{Addr: addr, Len: size, Write: true, Owner: m, Tag: tagBurst})
}

// Complete implements sim.Completer: a progress write finished, or the
// oldest staged frame landed in the receive buffer.
//
//nic:hotpath
func (m *MACRx) Complete(tag uint32) {
	if tag == tagProgress {
		m.Progress.Inc()
		return
	}
	f := m.staged.Pop()
	m.Port.Write(m.ProgressAddr, tagProgress)
	if m.OnReceive != nil {
		m.OnReceive(f.addr, f.size, f.handle, f.q)
	}
}

// drop hands a discarded frame back to its source.
//
//nic:hotpath
func (m *MACRx) drop(handle any) {
	if m.OnDrop != nil {
		m.OnDrop(handle)
	}
}

// queueFor steers one admitted frame: hash the flow identity the handle
// exposes and let the policy map it to a queue. Single-queue configurations
// skip the hash entirely — the seed receive path, bit for bit.
//
//nic:hotpath
func (m *MACRx) queueFor(handle any) int {
	if m.Queues <= 1 {
		return 0
	}
	var hash uint32
	if meta, ok := handle.(RxFlowMeta); ok {
		src, dst, srcPort, dstPort := meta.RxFlow()
		hash = FlowHash(src, dst, srcPort, dstPort)
	}
	if m.Steer == nil {
		return int(hash % uint32(m.Queues))
	}
	return m.Steer.Select(hash, m.Queues)
}

// dropQ counts a buffer-exhaustion drop globally and against the queue the
// frame was steered to, and hands the frame back.
func (m *MACRx) dropQ(q int, handle any) {
	m.Drops.Inc()
	if q < len(m.QueueDrops) {
		m.QueueDrops[q].Inc()
	}
	m.drop(handle)
}

// admit applies the deterministic wire-validity checks a hardware MAC makes
// before DMA: length bounds, frame check sequence, and the receive address
// filter. A false return means the frame was dropped and counted; rejected
// frames never increment RxFrames, so the MAC/firmware conservation
// invariant is unaffected. Runs once per arriving frame.
//
//nic:hotpath
func (m *MACRx) admit(size int, handle any) bool {
	if size < ethernet.MinFrame {
		m.RuntDrops.Inc()
		return false
	}
	maxFrame := m.MaxFrame
	if maxFrame == 0 {
		maxFrame = ethernet.MaxFrame
	}
	if size > maxFrame {
		m.OversizeDrops.Inc()
		return false
	}
	if meta, ok := handle.(RxFrameMeta); ok {
		if meta.RxBadCRC() {
			m.BadCRCDrops.Inc()
			return false
		}
		if m.Filter != nil {
			if dst, addressed := meta.RxDst(); addressed && !m.Filter.Accept(dst) {
				m.FilteredDrops.Inc()
				return false
			}
		}
	}
	return true
}

// TxWire adapts the MAC-domain half of MACTx to a sim.Sleeper: it sleeps
// through each frame on the wire and, idle, until a frame is staged.
type TxWire struct{ M *MACTx }

// Tick advances the transmit wire.
func (w TxWire) Tick(cycle uint64) { w.M.TickMAC(cycle) }

// Sleep implements sim.Sleeper.
func (w TxWire) Sleep() uint64 {
	if w.M.wireRemain > 0 {
		return wireCountdown(w.M.wireRemain)
	}
	if w.M.staged.Len() == 0 {
		return sim.UntilWoken
	}
	return 0
}

// Skip implements sim.Sleeper.
func (w TxWire) Skip(n uint64) { skipWire(&w.M.WireBusy, &w.M.wireRemain, n) }

// SetWake implements sim.Sleeper; staging a frame wakes the wire.
func (w TxWire) SetWake(wake func()) { w.M.wakeWire = wake }

// RxWire adapts the MAC-domain half of MACRx to a sim.Sleeper: it sleeps
// through each frame on the wire. An idle wire with a Source stays awake,
// because the source is polled every idle cycle (an adversarial source
// counts those polls as gap time); without one it sleeps for good, so
// attach the Source before the run.
type RxWire struct{ M *MACRx }

// Tick advances the receive wire.
func (w RxWire) Tick(cycle uint64) { w.M.TickMAC(cycle) }

// Sleep implements sim.Sleeper.
func (w RxWire) Sleep() uint64 {
	if w.M.wireRemain > 0 {
		return wireCountdown(w.M.wireRemain)
	}
	if w.M.Source != nil {
		return 0
	}
	return sim.UntilWoken
}

// Skip implements sim.Sleeper.
func (w RxWire) Skip(n uint64) { skipWire(&w.M.WireBusy, &w.M.wireRemain, n) }

// SetWake implements sim.Sleeper. Nothing wakes the receive wire.
func (w RxWire) SetWake(func()) {}

// wireCountdown is the number of upcoming wire cycles that only count a frame
// down: every cycle but the one that moves its last bytes. While they run,
// wireRemain stays positive, so Backlog reads the same as in a ticked run.
func wireCountdown(remain int) uint64 { return uint64(remain-1) / BytesPerMACCycle }

// skipWire replays n busy wire cycles (or idle ones, with no frame on the
// wire).
func skipWire(u *stats.Utilization, remain *int, n uint64) {
	u.Total.Add(n)
	if *remain > 0 {
		u.Busy.Add(n)
		*remain -= int(n) * BytesPerMACCycle
	}
}
