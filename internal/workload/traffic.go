package workload

import (
	"fmt"
	"math"
	"math/rand"
	"strconv"
	"strings"

	"repro/internal/ethernet"
	"repro/internal/host"
	"repro/internal/stats"
)

// Traffic classes: what the adversarial stream is made of. Every class other
// than ClassUniform mixes hostile or non-baseline frames into the stream the
// paper's evaluation never exercises.
const (
	ClassUniform  = "uniform"  // well-formed frames of one size (baseline)
	ClassJumbo    = "jumbo"    // well-formed jumbo frames (needs a jumbo build)
	ClassRunt     = "runt"     // interleaved sub-minimum frames
	ClassOversize = "oversize" // interleaved frames beyond the MAC's maximum
	ClassBadCRC   = "badcrc"   // interleaved frames with failing FCS
	ClassMcast    = "mcast"    // unicast/broadcast/multicast rotation with filtering
	ClassMixed    = "mixed"    // frame sizes drawn from the Figure-8 axis
	ClassPriority = "priority" // two-level split: small critical + bulk frames
)

// Arrival processes: when frames arrive. The empty string means
// ArrivalSaturate. Gaps are measured in idle MAC-cycle polls (8 byte times
// each), so every process is schedule-deterministic given the seed.
const (
	ArrivalSaturate = "saturate" // back-to-back at line rate
	ArrivalBurst    = "burst"    // on/off: frame bursts separated by idle gaps
	ArrivalPareto   = "pareto"   // per-frame Pareto-distributed gaps (heavy tail)
	ArrivalSync     = "sync"     // bursts synchronized across both directions
)

// Hostile frame geometry.
const (
	// RuntFrameSize is the on-wire size of injected runt frames.
	RuntFrameSize = 40
	// OversizeFrameSize is the on-wire size of injected oversize frames:
	// beyond the standard MAC maximum, below the jumbo limit.
	OversizeFrameSize = ethernet.MaxFrame + 494 // 2012
	// CritUDPSize is the datagram size of the priority class's critical
	// frames: minimum-sized frames, the latency-sensitive extreme.
	CritUDPSize = 18
)

// trafficClasses and trafficArrivals list the valid values for validation
// and CLI help.
var (
	trafficClasses = []string{
		ClassUniform, ClassJumbo, ClassRunt, ClassOversize,
		ClassBadCRC, ClassMcast, ClassMixed, ClassPriority,
	}
	trafficArrivals = []string{ArrivalSaturate, ArrivalBurst, ArrivalPareto, ArrivalSync}
)

// TrafficSpec selects one adversarial traffic class and arrival process. It
// is pure data and embeds into sweep.Spec, so a hostile workload is a
// content-hashed, sweepable axis exactly like a fault plan.
//
//nic:hashstable 836f56cb976d
type TrafficSpec struct {
	Class   string `json:"class"`
	Arrival string `json:"arrival,omitempty"` // empty = saturate
	Seed    int64  `json:"seed,omitempty"`

	// Flows spreads the stream's well-formed frames across this many distinct
	// flow identities (source MAC/port tuples) so an RSS receive stage has
	// something to steer. Zero or one keeps the seed's single-flow stream
	// byte-identical. Flow identity derives arithmetically from the frame
	// sequence number — no PRNG draw — so arrival schedules are unchanged.
	Flows int `json:"flows,omitempty"`
}

// Validate reports the first specification error, if any.
func (t TrafficSpec) Validate() error {
	okClass := false
	for _, c := range trafficClasses {
		if t.Class == c {
			okClass = true
		}
	}
	if !okClass {
		return fmt.Errorf("workload: unknown traffic class %q (have %s)", t.Class, strings.Join(trafficClasses, ", "))
	}
	if t.Arrival != "" {
		okArr := false
		for _, a := range trafficArrivals {
			if t.Arrival == a {
				okArr = true
			}
		}
		if !okArr {
			return fmt.Errorf("workload: unknown arrival process %q (have %s)", t.Arrival, strings.Join(trafficArrivals, ", "))
		}
	}
	if t.Flows < 0 {
		return fmt.Errorf("workload: flow count must be positive, got %d (omit or use flows=1 for a single flow)", t.Flows)
	}
	return nil
}

// ParseTraffic parses the compact CLI syntax
// "class[,arrival][,seed=N][,flows=N]", e.g. "badcrc", "mcast,burst",
// "mixed,pareto,seed=7", "uniform,flows=64".
func ParseTraffic(s string) (TrafficSpec, error) {
	var t TrafficSpec
	for i, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		switch {
		case part == "":
			continue
		case strings.HasPrefix(part, "seed="):
			seed, err := strconv.ParseInt(strings.TrimPrefix(part, "seed="), 10, 64)
			if err != nil {
				return TrafficSpec{}, fmt.Errorf("workload: bad traffic seed %q", part)
			}
			t.Seed = seed
		case strings.HasPrefix(part, "flows="):
			n, err := strconv.Atoi(strings.TrimPrefix(part, "flows="))
			if err != nil || n <= 0 {
				return TrafficSpec{}, fmt.Errorf("workload: bad traffic flow count %q (want flows=N with N ≥ 1)", part)
			}
			t.Flows = n
		case i == 0:
			t.Class = part
		case t.Arrival == "":
			if part == ArrivalSaturate {
				part = ""
			}
			t.Arrival = part
		default:
			return TrafficSpec{}, fmt.Errorf("workload: unexpected traffic field %q", part)
		}
	}
	if err := t.Validate(); err != nil {
		return TrafficSpec{}, err
	}
	return t, nil
}

// Well-known addresses of the adversarial streams. The station and peer
// unicast addresses match the baseline payload generator; the two groups are
// IPv4-multicast-mapped addresses, one subscribed and one not.
var (
	// StationMAC is the receive station's own unicast address.
	StationMAC = ethernet.MAC{0x02, 0, 0, 0, 0, 2}
	// PeerMAC is the remote sender's unicast address.
	PeerMAC = ethernet.MAC{0x02, 0, 0, 0, 0, 1}
	// SubscribedGroup is a multicast group the station has joined.
	SubscribedGroup = ethernet.MAC{0x01, 0x00, 0x5e, 0, 0, 0x01}
	// UnsubscribedGroup is a multicast group the station has not joined;
	// frames addressed to it must be filtered at the MAC.
	UnsubscribedGroup = ethernet.MAC{0x01, 0x00, 0x5e, 0, 0, 0x63}
)

// StationFilter returns the receive address filter matching the adversarial
// streams: the station's unicast address plus the one subscribed group.
func StationFilter() *ethernet.AddressFilter {
	return &ethernet.AddressFilter{Station: StationMAC, Groups: []ethernet.MAC{SubscribedGroup}}
}

// Adversary is the hostile receive-side workload: an assist.NetworkSource
// producing one traffic class under one arrival process. All randomness
// comes from a seeded private PRNG advanced only inside Next, which the MAC
// polls exactly once per idle wire cycle — so given (spec, seed) every frame
// lands on the same cycle in every run.
type Adversary struct {
	Spec TrafficSpec
	// Free supplies the frames; nil allocates each one.
	Free *host.FrameList

	udpSize     int
	withPayload bool
	jumbo       bool
	rng         *rand.Rand
	mixedSizes  []int

	seq        uint64
	gap        int // idle polls remaining before the next frame
	burstLeft  int // frames left in the current on-burst
	hostileIn  int // well-formed frames until the next hostile frame
	mcastPhase int

	// Offered counts every frame presented on the wire; HostileOffered the
	// malformed/filtered subset the MAC must reject; CritOffered the
	// latency-critical subset of the priority class.
	Offered        stats.Counter
	HostileOffered stats.Counter
	CritOffered    stats.Counter
}

// NewAdversary builds the hostile source for a validated spec. udpSize is
// the well-formed frames' datagram size; withPayload carries real bytes on
// deliverable frames so the host can integrity-check them.
func NewAdversary(spec TrafficSpec, udpSize int, withPayload bool) *Adversary {
	return &Adversary{
		Spec:        spec,
		udpSize:     udpSize,
		withPayload: withPayload,
		jumbo:       spec.Class == ClassJumbo,
		rng:         rand.New(rand.NewSource(spec.Seed)),
		mixedSizes:  []int{18, 100, 200, 400, 800, 1200, 1472},
		hostileIn:   3,
	}
}

// Count returns frames offered so far (the Offered counter as a sequence).
func (a *Adversary) Count() uint64 { return a.seq }

// Next implements assist.NetworkSource. It is polled once per idle MAC wire
// cycle; gap countdowns therefore measure idle 8-byte wire times.
//
//nic:hotpath
func (a *Adversary) Next() (int, any, bool) {
	if a.gap > 0 {
		a.gap--
		return 0, nil, false
	}
	switch a.Spec.Arrival {
	case ArrivalBurst, ArrivalSync:
		if a.burstLeft == 0 {
			a.burstLeft = 16 + a.rng.Intn(33)
		}
		a.burstLeft--
		if a.burstLeft == 0 {
			a.gap = 200 + a.rng.Intn(1001)
		}
	case ArrivalPareto:
		a.gap = a.paretoGap()
	}
	f := a.frame()
	return f.Size, f, true
}

// TxGate reports whether the transmit side may post frames this instant.
// Only the synchronized-burst arrival gates transmit: both directions surge
// together, the worst case for shared firmware state.
func (a *Adversary) TxGate() bool {
	if a.Spec.Arrival != ArrivalSync {
		return true
	}
	return a.gap == 0
}

// paretoGap draws one discretized, bounded Pareto-distributed idle gap
// (xm=1, alpha=1.2: mean ~6 polls with a heavy tail).
func (a *Adversary) paretoGap() int {
	u := a.rng.Float64()
	g := int(math.Pow(1-u, -1/1.2)) - 1
	if g < 0 {
		g = 0
	}
	if g > 4096 {
		g = 4096
	}
	return g
}

// frame builds the next frame of the stream according to the class.
func (a *Adversary) frame() *host.Frame {
	a.Offered.Inc()
	switch a.Spec.Class {
	case ClassRunt, ClassOversize, ClassBadCRC:
		if a.hostileIn == 0 {
			a.hostileIn = 3 + a.rng.Intn(4)
			return a.hostile()
		}
		a.hostileIn--
		return a.wellFormed(a.udpSize, StationMAC, false)
	case ClassMcast:
		return a.mcastFrame()
	case ClassMixed:
		return a.wellFormed(a.mixedSizes[a.rng.Intn(len(a.mixedSizes))], StationMAC, false)
	case ClassPriority:
		if a.rng.Intn(4) == 0 {
			a.CritOffered.Inc()
			return a.wellFormed(CritUDPSize, StationMAC, true)
		}
		return a.wellFormed(a.udpSize, StationMAC, false)
	default: // ClassUniform, ClassJumbo
		return a.wellFormed(a.udpSize, StationMAC, false)
	}
}

// hostile builds one malformed frame: a runt, an oversize frame, or a frame
// arriving with a failing FCS. Hostile frames consume a sequence number
// (their rejection leaves a forward gap, which in-order sinks tolerate) and
// carry no payload bytes — the MAC discards them before any byte is read.
func (a *Adversary) hostile() *host.Frame {
	a.HostileOffered.Inc()
	f := a.Free.Get()
	f.Seq, f.Dst = a.seq, StationMAC
	a.seq++
	switch a.Spec.Class {
	case ClassOversize:
		f.Size = OversizeFrameSize
	case ClassBadCRC:
		f.Size = ethernet.FrameSizeForUDP(a.udpSize)
		f.UDPSize = a.udpSize
		f.BadCRC = true
	default: // ClassRunt
		f.Size = RuntFrameSize
	}
	return f
}

// mcastFrame rotates the destination through station unicast, broadcast,
// the subscribed group, and an unsubscribed group (which the filter must
// reject).
func (a *Adversary) mcastFrame() *host.Frame {
	phase := a.mcastPhase
	a.mcastPhase = (a.mcastPhase + 1) & 3
	switch phase {
	case 1:
		return a.wellFormed(a.udpSize, ethernet.Broadcast, false)
	case 2:
		return a.wellFormed(a.udpSize, SubscribedGroup, false)
	case 3:
		a.HostileOffered.Inc()
		f := a.wellFormed(a.udpSize, UnsubscribedGroup, false)
		return f
	default:
		return a.wellFormed(a.udpSize, StationMAC, false)
	}
}

// wellFormed builds one deliverable frame, with real bytes when the
// adversary carries payloads.
func (a *Adversary) wellFormed(udp int, dst ethernet.MAC, crit bool) *host.Frame {
	size := ethernet.FrameSizeForUDP(udp)
	if a.jumbo {
		size = ethernet.JumboFrameSizeForUDP(udp)
	}
	f := a.Free.Get()
	*f = host.Frame{Seq: a.seq, UDPSize: udp, Size: size, Dst: dst, Crit: crit}
	a.seq++
	a.flowIdentity(f)
	if a.withPayload {
		f.Wire = marshalUDP(f.Seq, udp, dst)
	}
	return f
}

// flowIdentity stamps the frame's flow tuple (source MAC and UDP ports) for
// a multi-flow spec. The flow id is a pure function of the sequence number —
// a multiplicative scramble so adjacent frames land on different flows — and
// draws nothing from the PRNG, keeping arrival schedules identical to the
// single-flow stream.
func (a *Adversary) flowIdentity(f *host.Frame) {
	if a.Spec.Flows <= 1 {
		return
	}
	fid := f.Seq * 0x9E3779B1 % uint64(a.Spec.Flows)
	f.Src = PeerMAC
	f.Src[4] = byte(fid >> 8)
	f.Src[5] = byte(fid)
	f.SrcPort = 5001 + uint16(fid&0xff)
	f.DstPort = 5002
}

// marshalUDP serializes one UDP frame with the sequence tag embedded in the
// payload, as the baseline payload generator does.
func marshalUDP(seq uint64, udp int, dst ethernet.MAC) []byte {
	payload := make([]byte, udp)
	for i := range payload {
		payload[i] = byte(i * 31)
	}
	ethernet.PutSeqTag(payload, seq)
	p := &ethernet.UDPPacket{
		SrcIP: ethernet.IPv4Addr{10, 0, 0, 1}, DstIP: ethernet.IPv4Addr{10, 0, 0, 2},
		SrcPort: 5001, DstPort: 5002,
		ID:      uint16(seq),
		Payload: payload,
	}
	fr := &ethernet.Frame{
		Dst:       dst,
		Src:       PeerMAC,
		EtherType: ethernet.EtherTypeIPv4,
		Payload:   p.MarshalIPv4(),
	}
	return fr.Marshal()
}

// GatedSender adapts a Generator to host.SendSource like Sender, but pauses
// posting while the adversary's synchronized burst phase is off, so both
// directions surge together.
type GatedSender struct {
	G         *Generator
	Adv       *Adversary
	MaxFrames uint64
}

// Next implements host.SendSource.
func (s *GatedSender) Next() *host.Frame {
	if s.Adv != nil && !s.Adv.TxGate() {
		return nil
	}
	if s.MaxFrames != 0 && s.G.Count() >= s.MaxFrames {
		return nil
	}
	return s.G.Frame()
}
