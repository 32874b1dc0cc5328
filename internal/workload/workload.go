// Package workload generates the traffic the paper evaluates with:
// full-duplex streams of fixed-size UDP datagrams, from maximum-sized
// (1472-byte payloads in 1518-byte frames) down to the small sizes of
// Figure 8, plus sinks that validate in-order delivery.
package workload

import (
	"repro/internal/ethernet"
	"repro/internal/host"
	"repro/internal/stats"
)

// Generator produces a stream of UDP frames of one size with increasing
// sequence numbers. When WithPayload is set, each frame carries real bytes
// (headers, checksums, CRC) so delivery can be integrity-checked; timing
// studies leave it off.
type Generator struct {
	UDPSize     int
	WithPayload bool
	// Jumbo sizes frames with the jumbo frame limit, allowing datagrams up
	// to ethernet.JumboMaxUDPPayload. Requires a jumbo-enabled controller.
	Jumbo bool
	// Free supplies the frames; nil allocates each one.
	Free *host.FrameList

	seq     uint64
	payload []byte
}

// NewGenerator creates a generator for the given UDP datagram size.
func NewGenerator(udpSize int, withPayload bool) *Generator {
	g := &Generator{UDPSize: udpSize, WithPayload: withPayload}
	if withPayload {
		g.payload = make([]byte, udpSize)
		for i := range g.payload {
			g.payload[i] = byte(i * 31)
		}
	}
	return g
}

// Frame produces the next frame in the stream.
func (g *Generator) Frame() *host.Frame {
	size := ethernet.FrameSizeForUDP(g.UDPSize)
	if g.Jumbo {
		size = ethernet.JumboFrameSizeForUDP(g.UDPSize)
	}
	f := g.Free.Get()
	f.Seq, f.UDPSize, f.Size = g.seq, g.UDPSize, size
	g.seq++
	if g.WithPayload {
		// Embed the (possibly truncated) sequence tag so the host-side sink
		// validates in-order delivery even for the smallest Figure-8 sizes.
		ethernet.PutSeqTag(g.payload, f.Seq)
		p := &ethernet.UDPPacket{
			SrcIP: ethernet.IPv4Addr{10, 0, 0, 1}, DstIP: ethernet.IPv4Addr{10, 0, 0, 2},
			SrcPort: 5001, DstPort: 5002,
			ID:      uint16(f.Seq),
			Payload: g.payload,
		}
		fr := &ethernet.Frame{
			Dst:       ethernet.MAC{0x02, 0, 0, 0, 0, 2},
			Src:       ethernet.MAC{0x02, 0, 0, 0, 0, 1},
			EtherType: ethernet.EtherTypeIPv4,
			Payload:   p.MarshalIPv4(),
		}
		f.Wire = fr.Marshal()
	}
	return f
}

// Count returns frames generated so far.
func (g *Generator) Count() uint64 { return g.seq }

// Sender adapts a Generator to host.SendSource. MaxFrames of zero means
// unlimited (saturating offered load).
type Sender struct {
	G         *Generator
	MaxFrames uint64
}

// Next implements host.SendSource.
func (s *Sender) Next() *host.Frame {
	if s.MaxFrames != 0 && s.G.Count() >= s.MaxFrames {
		return nil
	}
	return s.G.Frame()
}

// Arrivals adapts a Generator to the MAC receive side (assist.NetworkSource):
// frames arrive back to back at line rate, the paper's bidirectional stream.
type Arrivals struct {
	G         *Generator
	MaxFrames uint64
}

// Next implements assist.NetworkSource.
func (a *Arrivals) Next() (int, any, bool) {
	if a.MaxFrames != 0 && a.G.Count() >= a.MaxFrames {
		return 0, nil, false
	}
	f := a.G.Frame()
	return f.Size, f, true
}

// TxSink receives transmitted frames from the MAC and validates that the NIC
// preserved posting order — the invariant the paper's status-flag commit
// logic exists to maintain.
type TxSink struct {
	Frames     stats.Counter
	Bytes      stats.Counter // UDP payload bytes
	OutOfOrder stats.Counter
	// Free, when non-nil, takes back every transmitted frame.
	Free *host.FrameList

	next uint64
	have bool
}

// Transmit consumes one transmitted frame handle (a *host.Frame) and hands
// the frame back to Free.
func (s *TxSink) Transmit(handle any) {
	f := handle.(*host.Frame)
	s.Frames.Inc()
	s.Bytes.Add(uint64(f.UDPSize))
	// Only a backward sequence step is a reordering violation; forward gaps
	// would come from drops, which cannot happen on the send path.
	if s.have && f.Seq < s.next {
		s.OutOfOrder.Inc()
	}
	s.next = f.Seq + 1
	s.have = true
	s.Free.Put(f)
}
