package firmware

import (
	"math"
	"math/rand/v2"
	"slices"
	"testing"

	"repro/internal/cpu"
)

func TestCostEmitsExactBudget(t *testing.T) {
	for _, c := range []TaskCost{{150, 34, 21}, {52, 14, 10}, {12, 6, 0}, {555, 126, 78}} {
		b := newBuilder(&streamPool{}, 1, 0.15)
		b.cost(c, walk([]uint32{0}))
		if len(b.ops) != c.Instr {
			t.Errorf("cost(%+v) emitted %d ops, want %d", c, len(b.ops), c.Instr)
		}
		loads, stores := 0, 0
		for _, op := range b.ops {
			switch op.Kind {
			case cpu.OpLoad:
				loads++
			case cpu.OpStore:
				stores++
			}
		}
		if loads != c.Loads || stores != c.Stores {
			t.Errorf("cost(%+v) emitted %d loads %d stores", c, loads, stores)
		}
	}
}

// TestHazardRate checks the realised hazard rate over 10^6 draws: a
// thousand streams of a thousand draws each, the seeds a firmware hands out.
func TestHazardRate(t *testing.T) {
	const streams, draws = 1000, 1000
	for _, hf := range []float64{0.15, 0.28} {
		hits := 0
		for seed := int64(1); seed <= streams; seed++ {
			b := newBuilder(&streamPool{}, seed, hf)
			for i := 0; i < draws; i++ {
				if b.hazard() {
					hits++
				}
			}
		}
		if rate := float64(hits) / (streams * draws); math.Abs(rate-hf) > 0.005 {
			t.Errorf("hf %.2f: realised rate %.4f", hf, rate)
		}
	}
}

// hazardBits returns a stream's first n hazard draws.
func hazardBits(seed int64, n int) []bool {
	b := newBuilder(&streamPool{}, seed, 0.28)
	bits := make([]bool, n)
	for i := range bits {
		bits[i] = b.hazard()
	}
	return bits
}

// TestHazardDrawsIgnoreInterleaving draws from several builders in a
// shuffled interleaving and checks that each stream's bits equal those it
// draws alone. Seeds past 2^20 and 2^32 draw the same way as small ones.
func TestHazardDrawsIgnoreInterleaving(t *testing.T) {
	const n = 700
	seeds := []int64{3, 1<<20 + 5, 1 << 40}
	builders := make([]streamBuilder, len(seeds))
	got := make([][]bool, len(seeds))
	for k, seed := range seeds {
		builders[k] = newBuilder(&streamPool{}, seed, 0.28)
	}
	rng := rand.New(rand.NewPCG(1, 2))
	for left := n * len(seeds); left > 0; {
		k := rng.IntN(len(seeds))
		if len(got[k]) == n {
			continue
		}
		got[k] = append(got[k], builders[k].hazard())
		left--
	}
	for k, seed := range seeds {
		if want := hazardBits(seed, n); !slices.Equal(got[k], want) {
			t.Errorf("seed %d: interleaved draws differ from the stream drawn alone", seed)
		}
	}
}

// TestConcurrentBuildersAgree builds the same streams on two goroutines at
// once. Stream building reads no shared state, so the race detector stays
// quiet and both goroutines produce identical ops.
func TestConcurrentBuildersAgree(t *testing.T) {
	const streams = 200
	build := func() [][]cpu.Op {
		var pool streamPool
		out := make([][]cpu.Op, streams)
		for seed := int64(1); seed <= streams; seed++ {
			b := newBuilder(&pool, seed, 0.28)
			b.cost(TaskCost{150, 34, 21}, walk([]uint32{0x100}))
			out[seed-1] = slices.Clone(b.build("t", 0, 0, 0, 0).Ops)
		}
		return out
	}
	var other [][]cpu.Op
	done := make(chan struct{})
	go func() {
		defer close(done)
		other = build()
	}()
	mine := build()
	<-done
	for i := range mine {
		if !slices.EqualFunc(mine[i], other[i], func(a, b cpu.Op) bool {
			return a.Kind == b.Kind && a.Addr == b.Addr && a.Hazard == b.Hazard
		}) {
			t.Fatalf("stream %d differs between goroutines", i+1)
		}
	}
}
