package cpu

import (
	"math/rand"
	"testing"

	"repro/internal/mem"
	"repro/internal/sim"
)

// benchCPUDomain builds the controller's CPU domain without the assists:
// cores, crossbar and instruction memory at 166 MHz, registered in
// production order. Each core cycles through four prebuilt handler streams
// shaped like the firmware's (ALU runs with a 28% hazard rate, loads,
// buffered stores, RMWs and short lock sections), recycled as the firmware
// recycles its streams, so a steady-state edge allocates nothing.
func benchCPUDomain(cores int) (*sim.Engine, *sim.Domain) {
	sp := mem.NewScratchpad(4)
	xbar := mem.NewCrossbar(cores, 4)
	imem := mem.NewInstrMemory()
	d := sim.NewDomain("cpu", 166e6)
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < cores; i++ {
		c := New(i, sp, xbar, i, mem.NewICache(), imem, 4)
		var streams []*Stream
		for k := 0; k < 4; k++ {
			var ops []Op
			for len(ops) < 300 {
				for j := rng.Intn(8); j >= 0; j-- {
					op := Op{}
					if rng.Intn(100) < 28 {
						op.Hazard = 1
					}
					ops = append(ops, op)
				}
				addr := 0x1000 + uint32(rng.Intn(512))*4
				switch rng.Intn(10) {
				case 0, 1, 2, 3:
					ops = append(ops, Op{Kind: OpLoad, Addr: addr})
				case 4, 5, 6:
					ops = append(ops, Op{Kind: OpStore, Addr: addr})
				case 7, 8:
					ops = append(ops, Op{Kind: OpRMW, Addr: addr})
				default:
					lock := 0x300 + uint32(rng.Intn(2))*64
					ops = append(ops, Op{Kind: OpLock, Addr: lock}, Op{}, Op{Kind: OpStore, Addr: addr},
						Op{Kind: OpUnlock, Addr: lock})
				}
			}
			streams = append(streams, &Stream{
				Name: "bench", CodeBase: uint32(k) * 2048, CodeLen: 2048, Ops: ops, AcctID: k,
			})
		}
		n := 0
		c.NextWork = func() *Stream {
			n++
			return streams[n%len(streams)]
		}
		d.Add(c)
	}
	d.Add(xbar)
	d.Add(imem)
	return sim.NewEngine(d), d
}

// BenchmarkCPUDomain times six 166 MHz cores with the crossbar and
// instruction memory. An op is one simulated µs (166 edges); it must not
// allocate.
func BenchmarkCPUDomain(b *testing.B) {
	e, d := benchCPUDomain(6)
	us := func() { e.RunFor(sim.Microsecond) }
	e.RunFor(100 * sim.Microsecond) // warm the caches
	if a := testing.AllocsPerRun(100, us); a != 0 {
		b.Fatalf("%v allocs per simulated µs, want 0", a)
	}
	var ticks0 uint64
	for i := 0; i < 6; i++ {
		ticks0 += d.TickerTicks(i)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		us()
	}
	b.StopTimer()
	var ticks uint64
	for i := 0; i < 6; i++ {
		ticks += d.TickerTicks(i)
	}
	b.ReportMetric(float64(ticks-ticks0)/float64(b.N), "core-ticks/op")
}
