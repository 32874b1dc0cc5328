// Package ethernet provides Ethernet frame construction, parsing, and the
// wire-timing arithmetic that governs a 10 Gb/s full-duplex link.
//
// The constants here reproduce the paper's link model: a maximum-sized
// 1518-byte frame plus 8 bytes of preamble/SFD and a 12-byte interframe gap
// occupies 12,304 bit times, so a 10 Gb/s link delivers 812,744 such frames
// per second in each direction.
package ethernet

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
)

// Link and frame geometry, in bytes unless noted.
const (
	// PreambleBytes covers the 7-byte preamble plus the start frame delimiter.
	PreambleBytes = 8
	// InterframeGapBytes is the mandatory idle time between frames.
	InterframeGapBytes = 12
	// HeaderBytes is destination MAC + source MAC + EtherType.
	HeaderBytes = 14
	// CRCBytes is the frame check sequence.
	CRCBytes = 4
	// MinFrame is the minimum Ethernet frame size including CRC.
	MinFrame = 64
	// MaxFrame is the maximum standard Ethernet frame size including CRC.
	MaxFrame = 1518
	// MaxPayload is the maximum Ethernet payload (the IP MTU).
	MaxPayload = MaxFrame - HeaderBytes - CRCBytes // 1500
	// MinPayload is the minimum Ethernet payload before padding is required.
	MinPayload = MinFrame - HeaderBytes - CRCBytes // 46

	// IPv4HeaderBytes is the size of an option-less IPv4 header.
	IPv4HeaderBytes = 20
	// UDPHeaderBytes is the size of a UDP header.
	UDPHeaderBytes = 8
	// MaxUDPPayload is the largest UDP datagram that fits in one frame.
	MaxUDPPayload = MaxPayload - IPv4HeaderBytes - UDPHeaderBytes // 1472

	// EtherTypeIPv4 is the EtherType for IPv4.
	EtherTypeIPv4 = 0x0800

	// JumboMaxFrame is the maximum jumbo frame size including CRC: the
	// conventional 9000-byte jumbo MTU plus headers and FCS. Jumbo support is
	// opt-in per controller build (core.Config.JumboFrames); a standard MAC
	// rejects anything over MaxFrame as oversize.
	JumboMaxFrame = 9000 + HeaderBytes + CRCBytes // 9018
	// JumboMaxPayload is the jumbo Ethernet payload limit (the jumbo MTU).
	JumboMaxPayload = JumboMaxFrame - HeaderBytes - CRCBytes // 9000
	// JumboMaxUDPPayload is the largest UDP datagram one jumbo frame carries.
	JumboMaxUDPPayload = JumboMaxPayload - IPv4HeaderBytes - UDPHeaderBytes // 8972
)

// LinkGbps is the nominal link speed of the modeled network in Gb/s.
const LinkGbps = 10.0

// LinkBitsPerSec is the link speed in bits per second.
const LinkBitsPerSec = LinkGbps * 1e9

// WireBits returns the number of bit times one frame of the given size
// (including CRC, excluding preamble and IFG) occupies on the wire, counting
// preamble and interframe gap.
func WireBits(frameBytes int) int {
	return (frameBytes + PreambleBytes + InterframeGapBytes) * 8
}

// FramesPerSecond returns the maximum unidirectional frame rate for
// back-to-back frames of the given size.
func FramesPerSecond(frameBytes int) float64 {
	return LinkBitsPerSec / float64(WireBits(frameBytes))
}

// PayloadThroughputGbps returns the achievable UDP-payload throughput in Gb/s
// for back-to-back frames carrying the given UDP datagram size. This is the
// "Ethernet Limit" curve of the paper's Figures 7 and 8, per direction.
func PayloadThroughputGbps(udpPayload int) float64 {
	frame := FrameSizeForUDP(udpPayload)
	return FramesPerSecond(frame) * float64(udpPayload) * 8 / 1e9
}

// FrameSizeForUDP returns the Ethernet frame size (including CRC) that
// carries a UDP datagram of the given payload size, honoring minimum frame
// padding.
func FrameSizeForUDP(udpPayload int) int {
	payload := udpPayload + UDPHeaderBytes + IPv4HeaderBytes
	if payload < MinPayload {
		payload = MinPayload
	}
	if payload > MaxPayload {
		payload = MaxPayload
	}
	return payload + HeaderBytes + CRCBytes
}

// JumboFrameSizeForUDP returns the on-wire frame size (including CRC) that
// carries a UDP datagram of the given size on a jumbo-enabled link.
func JumboFrameSizeForUDP(udpPayload int) int {
	payload := udpPayload + UDPHeaderBytes + IPv4HeaderBytes
	if payload < MinPayload {
		payload = MinPayload
	}
	if payload > JumboMaxPayload {
		payload = JumboMaxPayload
	}
	return payload + HeaderBytes + CRCBytes
}

// JumboPayloadThroughputGbps is PayloadThroughputGbps for a jumbo-enabled
// link: the Ethernet-limited UDP-payload throughput per direction when frames
// may exceed the standard 1518-byte maximum.
func JumboPayloadThroughputGbps(udpPayload int) float64 {
	frame := JumboFrameSizeForUDP(udpPayload)
	return FramesPerSecond(frame) * float64(udpPayload) * 8 / 1e9
}

// A MAC is a 48-bit Ethernet address.
type MAC [6]byte

// String formats the address in the conventional colon-separated form.
func (m MAC) String() string {
	return fmt.Sprintf("%02x:%02x:%02x:%02x:%02x:%02x", m[0], m[1], m[2], m[3], m[4], m[5])
}

// A Frame is a parsed or under-construction Ethernet frame. Payload excludes
// the 4-byte CRC; Size reports the on-wire frame size including CRC.
type Frame struct {
	Dst       MAC
	Src       MAC
	EtherType uint16
	Payload   []byte
}

// Size returns the frame's on-wire size including the CRC.
func (f *Frame) Size() int { return HeaderBytes + len(f.Payload) + CRCBytes }

// Marshal serializes the frame, appending the computed CRC32 frame check
// sequence. Payloads shorter than the Ethernet minimum are zero-padded.
func (f *Frame) Marshal() []byte {
	payload := f.Payload
	if len(payload) < MinPayload {
		padded := make([]byte, MinPayload)
		copy(padded, payload)
		payload = padded
	}
	buf := make([]byte, 0, HeaderBytes+len(payload)+CRCBytes)
	buf = append(buf, f.Dst[:]...)
	buf = append(buf, f.Src[:]...)
	buf = binary.BigEndian.AppendUint16(buf, f.EtherType)
	buf = append(buf, payload...)
	fcs := crc32.ChecksumIEEE(buf)
	buf = binary.LittleEndian.AppendUint32(buf, fcs)
	return buf
}

// Unmarshal parses a serialized frame, verifying standard length bounds and
// the frame check sequence.
func Unmarshal(b []byte) (*Frame, error) { return UnmarshalMTU(b, MaxFrame) }

// UnmarshalMTU parses a serialized frame against an explicit maximum frame
// size (jumbo-enabled links pass JumboMaxFrame), verifying length bounds and
// the frame check sequence.
func UnmarshalMTU(b []byte, maxFrame int) (*Frame, error) {
	if len(b) < MinFrame {
		return nil, fmt.Errorf("ethernet: frame too short: %d bytes", len(b))
	}
	if len(b) > maxFrame {
		return nil, fmt.Errorf("ethernet: frame too long: %d bytes (max %d)", len(b), maxFrame)
	}
	body, fcsBytes := b[:len(b)-CRCBytes], b[len(b)-CRCBytes:]
	want := binary.LittleEndian.Uint32(fcsBytes)
	if got := crc32.ChecksumIEEE(body); got != want {
		return nil, fmt.Errorf("ethernet: FCS mismatch: got %08x want %08x", got, want)
	}
	f := &Frame{EtherType: binary.BigEndian.Uint16(body[12:14])}
	copy(f.Dst[:], body[0:6])
	copy(f.Src[:], body[6:12])
	f.Payload = append([]byte(nil), body[HeaderBytes:]...)
	return f, nil
}
