package mem

import (
	"math"
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/sim"
)

func TestScratchpadBankInterleave(t *testing.T) {
	sp := NewScratchpad(256*1024, 4)
	if sp.Banks() != 4 || sp.Capacity() != 256*1024 {
		t.Fatalf("geometry: banks=%d cap=%d", sp.Banks(), sp.Capacity())
	}
	// Sequential words rotate across banks.
	for i := uint32(0); i < 16; i++ {
		if got, want := sp.Bank(i*4), int(i%4); got != want {
			t.Errorf("Bank(%#x) = %d, want %d", i*4, got, want)
		}
	}
}

func TestScratchpadReadWrite(t *testing.T) {
	sp := NewScratchpad(1024, 2)
	sp.Write32(0x10, 0xdeadbeef)
	if got := sp.Read32(0x10); got != 0xdeadbeef {
		t.Errorf("Read32 = %#x", got)
	}
	r, w := sp.TotalAccesses()
	if r != 1 || w != 1 {
		t.Errorf("accesses = %d reads %d writes, want 1/1", r, w)
	}
	if sp.Reads[sp.Bank(0x10)].Value() != 1 {
		t.Errorf("read not attributed to bank %d", sp.Bank(0x10))
	}
}

func TestScratchpadUnalignedPanics(t *testing.T) {
	sp := NewScratchpad(1024, 2)
	defer func() {
		if recover() == nil {
			t.Fatal("unaligned access did not panic")
		}
	}()
	sp.Read32(2)
}

func TestScratchpadBadGeometryPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("bad geometry did not panic")
		}
	}()
	NewScratchpad(1000, 3)
}

func TestCrossbarSingleAccessTakesTwoCycles(t *testing.T) {
	x := NewCrossbar(2, 4)
	done := -1
	x.Submit(0, 2, false, func(waited uint64) {
		if waited != 0 {
			t.Errorf("waited = %d, want 0", waited)
		}
		done = 0
	})
	x.Tick(0) // grant
	if done != -1 {
		t.Fatal("completed during grant cycle")
	}
	if !x.Busy(0) {
		t.Fatal("port should be busy during access")
	}
	x.Tick(1) // access + return
	if done == -1 {
		t.Fatal("did not complete after two ticks")
	}
	if x.Busy(0) {
		t.Fatal("port still busy after completion")
	}
}

func TestCrossbarConflictSerializes(t *testing.T) {
	x := NewCrossbar(3, 4)
	var order []int
	for p := 0; p < 3; p++ {
		p := p
		x.Submit(p, 1, false, func(uint64) { order = append(order, p) })
	}
	for c := uint64(0); c < 6; c++ {
		x.Tick(c)
	}
	if len(order) != 3 {
		t.Fatalf("completed %d of 3", len(order))
	}
	// One grant per cycle to the same bank; all three must serialize.
	if x.Grants[1].Value() != 3 {
		t.Errorf("grants to bank 1 = %d, want 3", x.Grants[1].Value())
	}
	// The two losers accumulated wait cycles.
	var waits uint64
	for p := 0; p < 3; p++ {
		waits += x.WaitCycles[p].Value()
	}
	if waits != 3 { // second waits 1, third waits 2
		t.Errorf("total wait cycles = %d, want 3", waits)
	}
}

func TestCrossbarDifferentBanksProceedInParallel(t *testing.T) {
	x := NewCrossbar(2, 4)
	done := 0
	x.Submit(0, 0, false, func(uint64) { done++ })
	x.Submit(1, 3, true, func(uint64) { done++ })
	x.Tick(0)
	x.Tick(1)
	if done != 2 {
		t.Errorf("parallel accesses completed = %d, want 2", done)
	}
}

func TestCrossbarRoundRobinFairness(t *testing.T) {
	// Two ports hammering the same bank must alternate grants.
	x := NewCrossbar(2, 1)
	counts := [2]int{}
	var resubmit func(p int)
	resubmit = func(p int) {
		x.Submit(p, 0, false, func(uint64) {
			counts[p]++
			resubmit(p)
		})
	}
	resubmit(0)
	resubmit(1)
	for c := uint64(0); c < 100; c++ {
		x.Tick(c)
	}
	if d := counts[0] - counts[1]; d < -1 || d > 1 {
		t.Errorf("unfair round robin: %v", counts)
	}
	if counts[0]+counts[1] < 90 {
		t.Errorf("throughput too low under contention: %v", counts)
	}
}

func TestCrossbarDoubleSubmitPanics(t *testing.T) {
	x := NewCrossbar(1, 1)
	x.Submit(0, 0, false, nil)
	defer func() {
		if recover() == nil {
			t.Fatal("double submit did not panic")
		}
	}()
	x.Submit(0, 0, false, nil)
}

func TestExtMemResource(t *testing.T) {
	if ExtMemResource(4) != 4 {
		t.Errorf("ExtMemResource(4) = %d", ExtMemResource(4))
	}
}

func TestAlignedLen(t *testing.T) {
	cases := []struct {
		addr uint32
		n    int
		want int
	}{
		{0, 16, 16},
		{0, 1518, 1520},
		{4, 1518, 1528}, // misaligned start and end
		{8, 8, 8},
		{7, 1, 8},
		{7, 2, 16},
	}
	for _, c := range cases {
		if got := alignedLen(c.addr, c.n); got != c.want {
			t.Errorf("alignedLen(%d, %d) = %d, want %d", c.addr, c.n, got, c.want)
		}
	}
}

func TestSDRAMTransferCompletesAndCountsBandwidth(t *testing.T) {
	s := NewSDRAM(DefaultSDRAMConfig())
	done := false
	s.Enqueue(0, Transfer{Addr: 4, Len: 1518, Write: true, Owner: sim.CompleteFunc(func(uint32) { done = true })})
	for c := uint64(0); c < 200 && !done; c++ {
		s.Tick(c)
	}
	if !done {
		t.Fatal("transfer never completed")
	}
	if s.UsefulBytes.Value() != 1518 {
		t.Errorf("useful = %d", s.UsefulBytes.Value())
	}
	if s.ConsumedBytes.Value() != 1528 {
		t.Errorf("consumed = %d, want 1528 (misalignment waste)", s.ConsumedBytes.Value())
	}
	if s.WastedBytes.Value() != 10 {
		t.Errorf("wasted = %d, want 10", s.WastedBytes.Value())
	}
	if s.Activations.Value() != 1 {
		t.Errorf("activations = %d, want 1", s.Activations.Value())
	}
}

func TestSDRAMSequentialBurstsReuseOpenRow(t *testing.T) {
	s := NewSDRAM(DefaultSDRAMConfig())
	n := 0
	count := sim.CompleteFunc(func(uint32) { n++ })
	// Two bursts within the same 2 KB row: one activation only.
	s.Enqueue(0, Transfer{Addr: 0, Len: 512, Owner: count})
	s.Enqueue(0, Transfer{Addr: 512, Len: 512, Owner: count})
	for c := uint64(0); c < 200 && n < 2; c++ {
		s.Tick(c)
	}
	if n != 2 {
		t.Fatal("bursts did not complete")
	}
	if s.Activations.Value() != 1 {
		t.Errorf("activations = %d, want 1 (open-row hit)", s.Activations.Value())
	}
}

func TestSDRAMRoundRobinAcrossPorts(t *testing.T) {
	s := NewSDRAM(DefaultSDRAMConfig())
	var order []int
	record := sim.CompleteFunc(func(p uint32) { order = append(order, int(p)) })
	for p := 0; p < 4; p++ {
		s.Enqueue(p, Transfer{Addr: uint32(p) * 8192, Len: 64, Owner: record, Tag: uint32(p)})
	}
	for c := uint64(0); c < 400 && len(order) < 4; c++ {
		s.Tick(c)
	}
	if len(order) != 4 {
		t.Fatalf("completed %d of 4", len(order))
	}
	for i := 1; i < 4; i++ {
		if order[i] == order[i-1] {
			t.Errorf("port %d served twice in a row", order[i])
		}
	}
}

func TestSDRAMPeakBandwidthMatchesPaper(t *testing.T) {
	// "A 64-bit wide GDDR SDRAM operating at 500 MHz provides a peak
	// bandwidth of 64 Gb/s."
	if got := PeakGbps(500); math.Abs(got-64) > 1e-9 {
		t.Errorf("PeakGbps(500) = %v, want 64", got)
	}
}

func TestSDRAMSustainedStreamNearPeak(t *testing.T) {
	// Back-to-back maximum-frame bursts to consecutive addresses must
	// sustain near-peak bandwidth: few activations, high bus utilization.
	s := NewSDRAM(DefaultSDRAMConfig())
	addr := uint32(0)
	var issue sim.CompleteFunc
	issue = func(uint32) {
		s.Enqueue(0, Transfer{Addr: addr, Len: 1518, Owner: issue})
		addr += 1518
	}
	issue(0)
	const cycles = 100000
	for c := uint64(0); c < cycles; c++ {
		s.Tick(c)
	}
	util := s.Busy.Ratio()
	if util < 0.99 {
		t.Errorf("bus utilization = %.3f, want ~1 for a saturating stream", util)
	}
	eff := float64(s.ConsumedBytes.Value()) / (16 * cycles)
	if eff < 0.90 {
		t.Errorf("sustained efficiency = %.3f, want >0.90", eff)
	}
}

func TestICacheHitAfterFill(t *testing.T) {
	c := NewICache(8192, 2, 32)
	if c.Lookup(0x100) {
		t.Fatal("cold cache hit")
	}
	c.Fill(0x100)
	if !c.Lookup(0x100) {
		t.Fatal("miss after fill")
	}
	if !c.Lookup(0x11c) {
		t.Fatal("miss within same 32B line")
	}
	if c.Lookup(0x120) {
		t.Fatal("hit on adjacent line")
	}
}

func TestICacheTwoWayLRU(t *testing.T) {
	c := NewICache(8192, 2, 32)
	sets := 8192 / (2 * 32) // 128
	a := uint32(0)
	b := uint32(sets * 32)     // same set, different tag
	d := uint32(2 * sets * 32) // same set, third tag
	c.Fill(a)
	c.Fill(b)
	if !c.Lookup(a) || !c.Lookup(b) {
		t.Fatal("both ways should hit")
	}
	c.Lookup(a) // make a most-recently used
	c.Fill(d)   // must evict b
	if !c.Lookup(a) {
		t.Error("LRU evicted the wrong way (a gone)")
	}
	if c.Lookup(b) {
		t.Error("b should have been evicted")
	}
	if !c.Lookup(d) {
		t.Error("d should be resident")
	}
}

// TestICacheLastLineShortcut: Lookup's shortcut for the line of the last hit
// or fill, and HitN, must leave hits, misses, lines and replacement state
// exactly as full lookups do, in 2-way caches and in the 4-way pseudo-LRU
// ones, with code that aliases into a few sets.
func TestICacheLastLineShortcut(t *testing.T) {
	for _, ways := range []int{2, 4} {
		fast, full := NewICache(1024, ways, 32), NewICache(1024, ways, 32)
		x := uint32(12345)
		for i := 0; i < 20000; i++ {
			x = x*1664525 + 1013904223
			pc := (x >> 8 % 4 * 1024) + (x >> 12 % 8 * 32) + (x >> 16 % 8 * 4)
			n := uint64(1 + x>>20%5)
			if fast.Probe(pc) && x%3 == 0 {
				fast.HitN(pc, n)
				for k := uint64(0); k < n; k++ {
					full.lookup(pc)
				}
			} else if hit := fast.Lookup(pc); hit != full.lookup(pc) {
				t.Fatalf("%d-way, access %d (pc %#x): Lookup = %v, full lookup disagrees", ways, i, pc, hit)
			} else if !hit {
				fast.Fill(pc)
				full.Fill(pc)
			}
			if fast.Hits != full.Hits || fast.Misses != full.Misses ||
				!slices.Equal(fast.lines, full.lines) || !slices.Equal(fast.lruWay, full.lruWay) {
				t.Fatalf("%d-way, access %d (pc %#x): state differs from full lookups", ways, i, pc)
			}
		}
		if fast.Hits.Value() == 0 || fast.Misses.Value() == 0 {
			t.Fatalf("%d-way: hits %d, misses %d: the sequence exercises nothing", ways, fast.Hits.Value(), fast.Misses.Value())
		}
	}
}

func TestICacheHitRatio(t *testing.T) {
	c := NewICache(1024, 2, 32)
	c.Lookup(0) // miss
	c.Fill(0)
	c.Lookup(0) // hit
	c.Lookup(4) // hit
	if got := c.HitRatio(); math.Abs(got-2.0/3.0) > 1e-9 {
		t.Errorf("HitRatio = %v, want 2/3", got)
	}
}

func TestInstrMemoryFillLatencyAndUtilization(t *testing.T) {
	m := NewInstrMemory(2, 32) // 2 access + 2 transfer cycles
	var order []int
	m.RequestFill(0, func() { order = append(order, 0) })
	m.RequestFill(1, func() { order = append(order, 1) })
	for c := uint64(0); c < 8; c++ {
		m.Tick(c)
	}
	if len(order) != 2 || order[0] != 0 || order[1] != 1 {
		t.Fatalf("fills did not complete in order: %v", order)
	}
	if m.Fills.Value() != 2 {
		t.Errorf("fills = %d", m.Fills.Value())
	}
	// 2 transfer cycles per fill, 8 total cycles -> 50% port busy.
	if got := m.PortBusy.Ratio(); math.Abs(got-0.5) > 1e-9 {
		t.Errorf("port utilization = %v, want 0.5", got)
	}
}

func TestBitArraySetAndUpdateInOrder(t *testing.T) {
	sp := NewScratchpad(1024, 2)
	b := NewBitArray(sp, 0, 64)
	b.Set(0)
	b.Set(1)
	b.Set(2)
	last, n := b.Update()
	if last != 2 || n != 3 {
		t.Errorf("Update = (%d, %d), want (2, 3)", last, n)
	}
	if _, n := b.Update(); n != 0 {
		t.Errorf("second Update cleared %d bits, want 0", n)
	}
}

func TestBitArrayUpdateStopsAtGap(t *testing.T) {
	sp := NewScratchpad(1024, 2)
	b := NewBitArray(sp, 0, 64)
	b.Set(0)
	b.Set(2) // gap at 1
	last, n := b.Update()
	if last != 0 || n != 1 {
		t.Errorf("Update = (%d, %d), want (0, 1)", last, n)
	}
	// Bit 2 remains set, waiting for bit 1.
	if !b.IsSet(2) {
		t.Error("bit 2 should remain set")
	}
	b.Set(1)
	last, n = b.Update()
	if last != 2 || n != 2 {
		t.Errorf("Update after filling gap = (%d, %d), want (2, 2)", last, n)
	}
}

func TestBitArrayUpdateExaminesOneWordOnly(t *testing.T) {
	sp := NewScratchpad(1024, 2)
	b := NewBitArray(sp, 0, 64)
	for i := 0; i < 40; i++ {
		b.Set(i)
	}
	// First update clears at most bits 0..31.
	last, n := b.Update()
	if n != 32 || last != 31 {
		t.Errorf("first Update = (%d, %d), want (31, 32)", last, n)
	}
	last, n = b.Update()
	if n != 8 || last != 39 {
		t.Errorf("second Update = (%d, %d), want (39, 8)", last, n)
	}
}

func TestBitArrayWrapsAround(t *testing.T) {
	sp := NewScratchpad(1024, 2)
	b := NewBitArray(sp, 16, 64)
	for i := 0; i < 64; i++ {
		b.Set(i)
		if l, n := b.Update(); l != i || n != 1 {
			t.Fatalf("at %d: Update = (%d, %d)", i, l, n)
		}
	}
	// Wrapped: index 64 maps to bit 0 again.
	b.Set(64)
	if l, n := b.Update(); l != 0 || n != 1 {
		t.Errorf("wrapped Update = (%d, %d), want (0, 1)", l, n)
	}
}

func TestBitArrayPropertyMatchesReferenceModel(t *testing.T) {
	// Property: for any sequence of sets, repeatedly calling Update clears
	// exactly the longest consecutive run from the head, word-bounded,
	// matching a simple reference implementation.
	f := func(setsRaw []uint8) bool {
		sp := NewScratchpad(4096, 4)
		b := NewBitArray(sp, 0, 256)
		ref := make([]bool, 256)
		head := 0
		for _, s := range setsRaw {
			i := int(s)
			b.Set(i)
			ref[i%256] = true
			// Reference update: clear run from head, bounded to the word
			// containing the initial head.
			cleared := 0
			limit := 32 - head%32
			for ref[head%256] && cleared < limit {
				ref[head%256] = false
				head = (head + 1) % 256
				cleared++
			}
			_, n := b.Update()
			if n != cleared {
				return false
			}
		}
		for i := 0; i < 256; i++ {
			if b.IsSet(i) != ref[i] {
				return false
			}
		}
		return b.Head() == head
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestBitArrayBadSizePanics(t *testing.T) {
	sp := NewScratchpad(1024, 2)
	defer func() {
		if recover() == nil {
			t.Fatal("bad size did not panic")
		}
	}()
	NewBitArray(sp, 0, 33)
}
