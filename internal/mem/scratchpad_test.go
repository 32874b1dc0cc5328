package mem

import (
	"math/rand"
	"runtime"
	"testing"
)

func TestScratchpadUnwrittenReadsZero(t *testing.T) {
	// A word in the middle of a page, away from the probed edges.
	const written = 5*scratchPageBytes + 0x100
	sp := NewScratchpad(4)
	sp.Write32(written, 7)
	for _, addr := range []uint32{0, 4, written - 4, written + 4, scratchPageBytes, ScratchpadBytes - 4} {
		if got := sp.Read32(addr); got != 0 {
			t.Errorf("Read32(%#x) = %d on an unwritten word, want 0", addr, got)
		}
		if got := sp.Peek32(addr); got != 0 {
			t.Errorf("Peek32(%#x) = %d on an unwritten word, want 0", addr, got)
		}
	}
}

func TestScratchpadPageBoundaryRoundTrip(t *testing.T) {
	sp := NewScratchpad(4)
	for b := uint32(scratchPageBytes); b < ScratchpadBytes; b += 37 * scratchPageBytes {
		last, first := b-4, b
		sp.Write32(last, 0xa5a5a5a5)
		sp.Poke32(first, 0x5a5a5a5a)
		if got := sp.Read32(last); got != 0xa5a5a5a5 {
			t.Errorf("Read32(%#x) = %#x across the page boundary at %#x", last, got, b)
		}
		if got := sp.Peek32(first); got != 0x5a5a5a5a {
			t.Errorf("Peek32(%#x) = %#x across the page boundary at %#x", first, got, b)
		}
	}
	// The very last word of the scratchpad.
	sp.Poke32(ScratchpadBytes-4, 1)
	if got := sp.Read32(ScratchpadBytes - 4); got != 1 {
		t.Errorf("last word = %d, want 1", got)
	}
}

// TestScratchpadMatchesFlatArray drives the paged scratchpad and a flat
// word array with the same random accesses: every value read and every
// per-bank counter agree.
func TestScratchpadMatchesFlatArray(t *testing.T) {
	const banks = 8
	sp := NewScratchpad(banks)
	flat := make([]uint32, ScratchpadBytes/4)
	var reads, writes [banks]uint64
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 20000; i++ {
		// Half the accesses fall in 4 KB, so words are read back after writes.
		w := uint32(rng.Intn(len(flat)))
		if rng.Intn(2) == 0 {
			w %= 1024
		}
		addr := w * 4
		switch rng.Intn(6) {
		case 0:
			v := rng.Uint32()
			sp.Write32(addr, v)
			flat[w] = v
			writes[w%banks]++
		case 1:
			v := rng.Uint32()
			sp.Poke32(addr, v)
			flat[w] = v
		case 2:
			if got := sp.Read32(addr); got != flat[w] {
				t.Fatalf("access %d: Read32(%#x) = %#x, want %#x", i, addr, got, flat[w])
			}
			reads[w%banks]++
		case 3:
			if got := sp.Peek32(addr); got != flat[w] {
				t.Fatalf("access %d: Peek32(%#x) = %#x, want %#x", i, addr, got, flat[w])
			}
		case 4:
			sp.CountRead(addr)
			reads[w%banks]++
		case 5:
			sp.CountWrite(addr)
			writes[w%banks]++
		}
	}
	for b := 0; b < banks; b++ {
		if got := sp.Reads[b].Value(); got != reads[b] {
			t.Errorf("bank %d: %d reads, want %d", b, got, reads[b])
		}
		if got := sp.Writes[b].Value(); got != writes[b] {
			t.Errorf("bank %d: %d writes, want %d", b, got, writes[b])
		}
	}
}

// TestScratchpadBuildIsSmall pins the paged storage: a new scratchpad holds
// its page table and counters, not 256 KB of zeroed words.
func TestScratchpadBuildIsSmall(t *testing.T) {
	const n, limit = 64, 4 << 10
	keep := make([]*Scratchpad, n)
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for i := range keep {
		keep[i] = NewScratchpad(4)
	}
	runtime.ReadMemStats(&m1)
	runtime.KeepAlive(keep)
	if per := (m1.TotalAlloc - m0.TotalAlloc) / n; per > limit {
		t.Errorf("NewScratchpad(4) allocates %d B, want <= %d", per, limit)
	}
}

func TestScratchpadAccessPanics(t *testing.T) {
	sp := NewScratchpad(2)
	for _, a := range []struct {
		name   string
		access func(addr uint32)
	}{
		{"Read32", func(a uint32) { sp.Read32(a) }},
		{"Write32", func(a uint32) { sp.Write32(a, 1) }},
		{"Peek32", func(a uint32) { sp.Peek32(a) }},
		{"Poke32", func(a uint32) { sp.Poke32(a, 1) }},
		{"CountRead", func(a uint32) { sp.CountRead(a) }},
		{"CountWrite", func(a uint32) { sp.CountWrite(a) }},
	} {
		for _, addr := range []uint32{2, scratchPageBytes + 1, ScratchpadBytes, ScratchpadBytes + scratchPageBytes, 1 << 31} {
			func() {
				defer func() {
					if recover() == nil {
						t.Errorf("%s(%#x) did not panic", a.name, addr)
					}
				}()
				a.access(addr)
			}()
		}
	}
}
