// Package host models the server side of the NIC: main memory reached over
// the host interconnect, and the device driver that produces send buffer
// descriptors, preallocates receive buffers, and rings the NIC's mailbox
// doorbells.
//
// Following the paper, the interconnect's bandwidth is not modeled ("since
// server I/O interconnect standards are continually evolving, the bandwidth
// and latency of the I/O interconnect are not modeled"); what matters to the
// NIC is that every DMA suffers a long host round-trip latency, which this
// package applies uniformly.
package host

import (
	"fmt"

	"repro/internal/ethernet"
	"repro/internal/fifo"
	"repro/internal/sim"
	"repro/internal/stats"
)

// Frame is one Ethernet frame travelling through the system. Wire holds the
// full serialized frame (including CRC) when the workload is configured to
// carry real bytes; timing-only studies leave it nil.
//
// Dst, BadCRC, and Crit describe wire-level properties the adversarial
// workloads exercise: the destination address (zero means "addressed to the
// station", the legacy timing-only default), an arriving frame whose frame
// check sequence fails at the MAC, and a latency-critical frame of the
// two-level priority split. All three are zero for the paper's baseline
// workloads.
type Frame struct {
	Seq     uint64
	UDPSize int
	Size    int // on-wire frame size including CRC
	Wire    []byte

	Dst    ethernet.MAC
	BadCRC bool
	Crit   bool

	// Flow identity for receive-side scaling: the source address and UDP
	// port pair that, with Dst, form the RSS hash tuple. All zero for the
	// paper's baseline workloads, which are a single flow by construction.
	Src     ethernet.MAC
	SrcPort uint16
	DstPort uint16
}

// RxBadCRC implements the MAC's frame-metadata interface: whether this frame
// arrives with a failing frame check sequence.
//
//nic:hotpath
func (f *Frame) RxBadCRC() bool { return f.BadCRC }

// RxDst implements the MAC's frame-metadata interface: the destination
// address, with ok=false when the workload did not address the frame (legacy
// timing-only streams), in which case address filters pass it.
//
//nic:hotpath
func (f *Frame) RxDst() (ethernet.MAC, bool) {
	var zero ethernet.MAC
	return f.Dst, f.Dst != zero
}

// RxFlow implements the MAC's flow-metadata interface: the tuple the RSS
// hash covers. Baseline single-flow workloads return the zero tuple, which
// hashes to one constant queue — exactly the affinity they had before RSS.
//
//nic:hotpath
func (f *Frame) RxFlow() (src, dst ethernet.MAC, srcPort, dstPort uint16) {
	return f.Src, f.Dst, f.SrcPort, f.DstPort
}

// FrameList is a free list of frames owned by one NIC: its workload sources
// take frames from it, and each frame's last user puts it back (the transmit
// sink, the host after delivery, the MAC when it drops the frame). A nil
// list allocates every frame and takes none back.
type FrameList = fifo.Free[Frame]

// HeaderBytes is the discontiguous header region of a sent frame: Ethernet,
// IPv4, and UDP headers live in one host buffer and the payload in another,
// so every transmitted frame takes two buffer descriptors (paper §2.1).
const HeaderBytes = ethernet.HeaderBytes + ethernet.IPv4HeaderBytes + ethernet.UDPHeaderBytes // 42

// A SendBD describes one host memory region of a frame to transmit.
type SendBD struct {
	Frame *Frame
	Len   int
	Last  bool // true on the final (payload) descriptor of a frame
}

// SendSource supplies the transmit workload. Next returns the next frame the
// driver wants to send, or nil if none is ready at this instant.
type SendSource interface {
	Next() *Frame
}

// Config sizes the host model. A controller always uses DefaultConfig;
// other sizes serve the host's own tests and the core's sleep oracle.
type Config struct {
	// DMALatencyCycles is the host round-trip latency in host clock cycles.
	DMALatencyCycles int
	// SendRing is the send descriptor ring capacity in frames.
	SendRing int
	// RecvRing is the number of receive buffers the driver keeps posted on
	// each receive queue.
	RecvRing int
	// PostBatch bounds descriptors posted per driver tick.
	PostBatch int
}

// DefaultConfig returns a configuration matched to the paper's environment:
// a ~1 µs DMA round trip at the 133 MHz host interface clock and rings deep
// enough to cover it ("several hundred outstanding frames").
func DefaultConfig() Config {
	return Config{DMALatencyCycles: 133, SendRing: 512, RecvRing: 512, PostBatch: 64}
}

// Validate reports the first configuration error, if any.
func (c Config) Validate() error {
	if c.DMALatencyCycles < 0 {
		return fmt.Errorf("host: negative DMA latency %d", c.DMALatencyCycles)
	}
	if c.SendRing <= 0 {
		return fmt.Errorf("host: send ring must be positive, got %d", c.SendRing)
	}
	if c.RecvRing <= 0 {
		return fmt.Errorf("host: receive ring must be positive, got %d", c.RecvRing)
	}
	if c.PostBatch <= 0 {
		return fmt.Errorf("host: post batch must be positive, got %d", c.PostBatch)
	}
	return nil
}

// Host is the host processor, memory, and driver model. It implements the
// assists' Host interface (Delay). Register it in the host clock domain, where
// it is a sim.Sleeper: it sleeps while the driver has nothing to post or
// announce and no DMA completion is due.
type Host struct {
	cfg Config

	// Source is the transmit workload; set it before the run, since a
	// sleeping host does not look for a new one.
	Source SendSource
	// Free, when non-nil, takes back every frame DeliverFrame has handled.
	Free *FrameList

	// Delayed DMA completions. Every Delay uses the same fixed latency, so
	// the queue is inherently time-ordered: it is popped from the front —
	// not rescanned — each tick.
	now     uint64
	pending fifo.Queue[delayed]
	wake    func() // the clock domain's wake function (sim.Sleeper)

	// Send side.
	sendBDs       fifo.Queue[SendBD] // posted, not yet taken by the NIC
	taken         []SendBD           // TakeSendBDs' reused result
	postedFrames  uint64
	inFlight      int // frames posted but not completed (ring occupancy)
	mailboxWrites stats.Counter

	// Receive side, one ring per RSS queue (index 0 is the classic single
	// ring).
	recv []recvQueue

	// Fault model. The NIC sees only descriptors announced by a successful
	// mailbox doorbell: sendVisible/recvVisible trail the actual ring state
	// when a doorbell write is lost, and the driver re-rings on a later tick
	// (so a lost mailbox write delays, never deadlocks). starved halts the
	// driver entirely, modeling host descriptor-ring starvation.
	starved      bool
	sendVisible  int // send BDs announced to the NIC
	loseMailbox  int // armed doorbell losses
	MailboxLost  stats.Counter
	StarvedTicks stats.Counter

	// Delivered traffic accounting and in-order validation.
	SendCompleted stats.Counter
	RecvDelivered stats.Counter
	RecvBytes     stats.Counter // UDP payload bytes delivered to the host
	RecvOutOfOrd  stats.Counter
	RecvCorrupt   stats.Counter
	RecvCritical  stats.Counter // delivered frames marked latency-critical

	// RecvCrossReord counts cross-queue arrival-order inversions, the
	// ordering RSS deliberately relaxes: each queue stays in order (gated
	// by RecvOutOfOrd), but two queues may drain at different rates. Only
	// tracked with more than one queue; always zero on the seed path.
	RecvCrossReord stats.Counter
	nextRecvSeq    uint64
	haveRecvSeq    bool

	// JumboFrames widens payload validation to the jumbo frame limit,
	// matching a jumbo-enabled MAC.
	JumboFrames bool

	// OnPost observes every frame the driver posts, in posting order. Frames
	// are consumed by the NIC strictly in this order (TakeSendBDs is a FIFO),
	// so observers may pair postings with later lifecycle stages positionally.
	OnPost func()
}

// delayed is one pending DMA completion: at its due cycle, to receives tag.
type delayed struct {
	at  uint64
	to  sim.Completer
	tag uint32
}

// recvQueue is one per-core receive ring: buffers the driver keeps posted,
// those announced to the NIC by a doorbell, those the NIC has consumed, and
// the per-queue in-order validation state. Per-queue (not global) in-order
// delivery is the invariant RSS preserves.
type recvQueue struct {
	posted  int
	visible int
	taken   int

	nextSeq uint64
	haveSeq bool

	delivered uint64
	outOfOrd  uint64
}

// New creates a host model whose driver provisions rxQueues per-core receive
// rings (receive-side scaling; the paper's single-ring host is 1). The
// configuration must already satisfy Validate and rxQueues be positive;
// callers building from user input should validate first and report errors.
func New(cfg Config, rxQueues int) *Host {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	if rxQueues <= 0 {
		panic(fmt.Sprintf("host: receive queues must be positive, got %d", rxQueues))
	}
	return &Host{cfg: cfg, recv: make([]recvQueue, rxQueues)}
}

// SetStarved halts (true) or resumes (false) the driver, modeling descriptor
// ring starvation: no new send postings and no receive replenishment while
// starved. DMA completions still fire.
func (h *Host) SetStarved(v bool) {
	h.woken() // Skip counts starved ticks: replay them under the old state
	h.starved = v
	if !v {
		h.woken() // the resumed driver may have work the countdown skips
	}
}

// LoseMailboxWrites arms n doorbell losses: the next n mailbox writes are
// dropped on the floor and the NIC does not see the descriptors they would
// have announced until a later doorbell succeeds.
func (h *Host) LoseMailboxWrites(n int) { h.loseMailbox += n }

// mailboxWrite attempts one doorbell; false means the write was lost.
func (h *Host) mailboxWrite() bool {
	h.mailboxWrites.Inc()
	if h.loseMailbox > 0 {
		h.loseMailbox--
		h.MailboxLost.Inc()
		return false
	}
	return true
}

// Delay hands tag back to to after the DMA round-trip latency. It
// implements the assists' Host interface.
//
// The wake replays the ticks the host slept through, so now is current. One
// wake is enough: the new completion is due no earlier than the queue's
// head, which any countdown already stops at.
//
//nic:hotpath
func (h *Host) Delay(to sim.Completer, tag uint32) {
	h.woken()
	h.pending.Push(delayed{at: h.now + uint64(h.cfg.DMALatencyCycles), to: to, tag: tag})
}

// Tick advances the host clock: fires due DMA completions and runs the
// driver.
func (h *Host) Tick(cycle uint64) {
	h.now++
	// Fire due completions in enqueue order. Delay's latency is constant, so
	// entries are due in FIFO order; completions may Delay again, and those
	// entries land at the tail with a strictly later due time.
	for h.pending.Len() > 0 && h.pending.Ref(0).at <= h.now {
		d := h.pending.Pop()
		d.to.Complete(d.tag)
	}
	h.driver()
}

// woken calls the wake function, if the host has one.
func (h *Host) woken() {
	if h.wake != nil {
		h.wake()
	}
}

// Sleep implements sim.Sleeper. The next tick has work when the driver can
// post (ring space and a Source), must re-ring a lost send doorbell, or has a
// receive queue to replenish or announce, none of which it does while
// starved; or when the pending head is due. Otherwise the host counts down to
// the tick before the head is due, or sleeps until woken when nothing is
// pending.
func (h *Host) Sleep() uint64 {
	if !h.starved && h.driverWork() {
		return 0
	}
	if h.pending.Len() == 0 {
		return sim.UntilWoken
	}
	at := h.pending.Ref(0).at
	if at <= h.now+1 {
		return 0
	}
	return at - h.now - 1
}

// driverWork reports whether an unstarved driver tick would post or ring a
// doorbell.
func (h *Host) driverWork() bool {
	if h.Source != nil && h.inFlight < h.cfg.SendRing || h.sendVisible < h.sendBDs.Len() {
		return true
	}
	for i := range h.recv {
		if q := &h.recv[i]; q.posted < h.cfg.RecvRing || q.visible < q.posted {
			return true
		}
	}
	return false
}

// Skip implements sim.Sleeper: the skipped ticks only advance the clock and,
// while starved, count starved ticks. It reads nothing else, so an entry
// point that changes only ring or queue state (CompleteSend, DeliverFrame)
// wakes the host once, after the change, while one that stamps now (Delay)
// or changes starved (SetStarved) wakes it first.
func (h *Host) Skip(n uint64) {
	h.now += n
	if h.starved {
		h.StarvedTicks.Add(n)
	}
}

// SetWake implements sim.Sleeper.
func (h *Host) SetWake(wake func()) { h.wake = wake }

// driver posts send descriptors while ring space allows and replenishes the
// receive pool, writing the mailbox for each batch.
func (h *Host) driver() {
	if h.starved {
		h.StarvedTicks.Inc()
		return
	}
	posted := 0
	for posted < h.cfg.PostBatch && h.inFlight < h.cfg.SendRing && h.Source != nil {
		f := h.Source.Next()
		if f == nil {
			break
		}
		h.sendBDs.Push(SendBD{Frame: f, Len: HeaderBytes})
		h.sendBDs.Push(SendBD{Frame: f, Len: f.Size - HeaderBytes, Last: true})
		h.inFlight++
		h.postedFrames++
		posted++
		if h.OnPost != nil {
			h.OnPost()
		}
	}
	// Ring the send doorbell when there is anything new to announce,
	// including postings a previously lost doorbell failed to announce.
	if posted > 0 || h.sendVisible < h.sendBDs.Len() {
		if h.mailboxWrite() {
			h.sendVisible = h.sendBDs.Len()
		}
	}
	// Replenish and announce each receive queue independently: one doorbell
	// per queue that has something new, so queue interrupts and BD
	// production stay decoupled (with one queue this is the seed path's
	// single doorbell, bit for bit).
	for i := range h.recv {
		q := &h.recv[i]
		if q.posted < h.cfg.RecvRing {
			q.posted = h.cfg.RecvRing
		}
		if q.visible < q.posted {
			if h.mailboxWrite() {
				q.visible = q.posted
			}
		}
	}
}

// PostedSendBDs returns the number of send descriptors the NIC can see (those
// announced by a successful doorbell).
func (h *Host) PostedSendBDs() int { return h.sendVisible }

// TakeSendBDs removes and returns up to max visible send descriptors, the
// functional effect of a descriptor-batch DMA. The returned slice is reused:
// it is valid until the next call.
func (h *Host) TakeSendBDs(max int) []SendBD {
	if max > h.sendVisible {
		max = h.sendVisible
	}
	out := h.taken[:0]
	for i := 0; i < max; i++ {
		out = append(out, h.sendBDs.Pop())
	}
	h.taken = out
	h.sendVisible -= max
	return out
}

// SendRing returns the send descriptor ring's capacity in frames: the most
// frames posted and not yet completed.
func (h *Host) SendRing() int { return h.cfg.SendRing }

// RxQueues returns the number of receive queues the host provisions.
func (h *Host) RxQueues() int { return len(h.recv) }

// QueueDelivered returns the frames delivered on queue q.
func (h *Host) QueueDelivered(q int) uint64 { return h.recv[q].delivered }

// QueueOutOfOrd returns queue q's in-order delivery violations.
func (h *Host) QueueOutOfOrd(q int) uint64 { return h.recv[q].outOfOrd }

// PostedRecvBDs returns the number of receive buffers the NIC can see on
// queue q.
func (h *Host) PostedRecvBDs(q int) int { return h.recv[q].visible - h.recv[q].taken }

// TakeRecvBDs consumes up to max posted receive buffers of queue q and
// returns how many were taken.
func (h *Host) TakeRecvBDs(q, max int) int {
	avail := h.PostedRecvBDs(q)
	if max > avail {
		max = avail
	}
	h.recv[q].taken += max
	return max
}

// CompleteSend informs the driver that n frames finished transmission,
// freeing ring space.
func (h *Host) CompleteSend(n int) {
	h.inFlight -= n
	if h.inFlight < 0 {
		panic("host: send completions exceed postings")
	}
	h.SendCompleted.Add(uint64(n))
	h.woken() // the freed ring space is driver work (see Skip)
}

// DeliverFrame hands one received frame to the host on receive queue queue,
// consuming one of that queue's buffers. It validates per-queue sequence
// order — RSS steers each flow to one queue, so a queue delivering backward
// is the reordering TCP collapses under — and, when real bytes are carried,
// the frame and UDP checksums. The frame then goes back to Free: the caller
// must not use it afterwards.
func (h *Host) DeliverFrame(f *Frame, queue int) {
	rq := &h.recv[queue]
	rq.posted--
	rq.visible--
	rq.taken--
	rq.delivered++
	h.RecvDelivered.Inc()
	h.RecvBytes.Add(uint64(f.UDPSize))
	// Frames dropped at the MAC leave forward gaps, which are not
	// reordering; only a backward step violates in-order delivery.
	if rq.haveSeq && f.Seq < rq.nextSeq {
		rq.outOfOrd++
		h.RecvOutOfOrd.Inc()
	}
	rq.nextSeq = f.Seq + 1
	rq.haveSeq = true
	// Cross-queue order is deliberately relaxed under RSS; count the
	// inversions separately so reports can show the cost of the relaxation.
	if len(h.recv) > 1 {
		if h.haveRecvSeq && f.Seq < h.nextRecvSeq {
			h.RecvCrossReord.Inc()
		}
		h.nextRecvSeq = f.Seq + 1
		h.haveRecvSeq = true
	}
	if f.Crit {
		h.RecvCritical.Inc()
	}
	if f.Wire != nil {
		if err := validateFrame(f, h.JumboFrames); err != nil {
			h.RecvCorrupt.Inc()
		}
	}
	h.Free.Put(f)
	h.woken() // the consumed buffer is driver work (see Skip)
}

// validateFrame checks the Ethernet FCS, the UDP checksum, and the embedded
// sequence tag of a delivered frame.
func validateFrame(f *Frame, jumbo bool) error {
	maxFrame := ethernet.MaxFrame
	if jumbo {
		maxFrame = ethernet.JumboMaxFrame
	}
	fr, err := ethernet.UnmarshalMTU(f.Wire, maxFrame)
	if err != nil {
		return err
	}
	p, err := ethernet.ParseUDPIPv4(fr.Payload)
	if err != nil {
		return err
	}
	if len(p.Payload) != f.UDPSize {
		return fmt.Errorf("host: UDP size %d, want %d", len(p.Payload), f.UDPSize)
	}
	if !ethernet.CheckSeqTag(p.Payload, f.Seq) {
		return fmt.Errorf("host: payload sequence tag does not match seq %d", f.Seq)
	}
	return nil
}
