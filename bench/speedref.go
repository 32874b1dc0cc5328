package main

import "time"

// The recording machine is shared with other tenants. Their load moves the
// simulator's speed by 20–40% for minutes at a time, longer than any run,
// so no statistic over one run removes it. Every host-time metric is
// therefore also measured against a reference computation timed next to
// it. The reference is frozen with the benchmark, so a change to the
// simulator cannot change it. It does the simulator's kind of work:
// interface calls into ~1.8 MB of small structs in a shuffled order, with
// data-dependent branches. Of the candidates tried (this one, the same with
// allocation or streaming writes, a pointer chase, an integer loop), its
// time followed the simulator's best under the other tenants' load. Across
// run-length blocks on the recording machine it cut the simulator's drift
// from ±12% to ±5%. It does not follow a pure memory-bandwidth hog, which
// slows the simulator much more than it.

// refNominal is the reference computation's time on the recording machine
// when it is quiet. Host-time values are expressed at that speed.
const refNominal = 7500 * time.Microsecond

type refTicker interface{ tick(c uint64) }

type refNode struct {
	a, b, c, d  uint64
	peer, other *refNode
	buf         [6]uint64
}

func (n *refNode) tick(c uint64) {
	if n.a&1 == 0 {
		n.b += n.peer.a ^ c
	} else {
		n.c ^= n.other.b + c
	}
	n.buf[c%6] += n.a
	n.a = n.a*6364136223846793005 + 1442695040888963407 + n.d
	if n.a>>60 == 3 {
		n.d++
	}
}

// speedRef is the reference computation's state.
type speedRef struct{ order []refTicker }

func xorshift(x uint64) uint64 {
	x ^= x << 13
	x ^= x >> 7
	x ^= x << 17
	return x
}

func newSpeedRef() *speedRef {
	const n = 16384
	nodes := make([]*refNode, n)
	for i := range nodes {
		nodes[i] = &refNode{a: uint64(i) * 7919, d: uint64(i)}
	}
	x := uint64(12345)
	for _, nd := range nodes {
		x = xorshift(x)
		nd.peer = nodes[x%n]
		x = xorshift(x)
		nd.other = nodes[x%n]
	}
	r := &speedRef{order: make([]refTicker, n)}
	for i, j := range shuffled(n, x) {
		r.order[i] = nodes[j]
	}
	return r
}

func shuffled(n int, x uint64) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	for i := n - 1; i > 0; i-- {
		x = xorshift(x)
		j := int(x % uint64(i+1))
		p[i], p[j] = p[j], p[i]
	}
	return p
}

// time runs the reference computation once and returns how long it took.
func (r *speedRef) time() time.Duration {
	t0 := time.Now()
	for c := uint64(0); c < 40; c++ {
		for _, t := range r.order {
			t.tick(c)
		}
	}
	return time.Since(t0)
}
