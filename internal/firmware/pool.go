package firmware

import "repro/internal/cpu"

// Stream recycling. The paper's firmware allocates nothing per frame: it
// works from a preallocated event ring, fixed descriptor rings and fixed
// SDRAM frame slots. The model keeps the same discipline for its op streams.
// A core asks for work (cpu.Core.NextWork) only once its previous stream has
// completed or been preempted, so nextWork first recycles the stream it last
// handed to that core, and builders take their op buffers and Stream structs
// from the recycled ones. TakeOver drops a preempted core's record without
// recycling it: the remainder stream Preempt returns shares the evicted
// stream's ops.
//
// The free list has no fixed length, like the freeblocks list of a driver
// that preallocates its rings: every returned stream is kept, whatever its op
// capacity, so the list settles at the peak number of streams outstanding at
// once (queued continuations included) and then stops growing. Task-parallel
// firmware builds streams of up to ~10,000 ops; they are recycled like the
// rest.
const (
	// reserveSlack bounds the headroom a buffer is chosen with beyond the
	// ops requested: a cost block is usually followed by a short lock/ALU
	// tail.
	reserveSlack = 128
	// reserveMin is the smallest buffer chosen, so that a stream built one
	// op at a time does not pass through a string of tiny buffers.
	reserveMin = 64
)

// streamPool is a free list of streams with their op capacity, plus the
// address scratch the builder in use borrows.
type streamPool struct {
	free  []*cpu.Stream
	addrs []uint32
}

// get removes and returns the free stream with the smallest op capacity of
// at least need, or nil when none fits. Buffers above twice want are left
// for larger requests, so small streams do not pin large buffers.
func (p *streamPool) get(need, want int) *cpu.Stream {
	best := -1
	for i, s := range p.free {
		if c := cap(s.Ops); c >= need && c <= 2*want && (best < 0 || c < cap(p.free[best].Ops)) {
			best = i
		}
	}
	if best < 0 {
		return nil
	}
	s := p.free[best]
	last := len(p.free) - 1
	p.free[best] = p.free[last]
	p.free[last] = nil
	p.free = p.free[:last]
	return s
}

// put recycles s. Ops hold no pointers, so they need no clearing.
func (p *streamPool) put(s *cpu.Stream) {
	*s = cpu.Stream{Ops: s.Ops[:0]}
	p.free = append(p.free, s)
}
