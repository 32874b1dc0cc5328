package firmware

import (
	"fmt"
	"testing"

	"repro/internal/mem"
)

// panicText runs fn and returns the text of its panic, or "no panic".
func panicText(fn func()) (msg string) {
	defer func() {
		if v := recover(); v != nil {
			msg = fmt.Sprint(v)
		}
	}()
	fn()
	return "no panic"
}

// TestFrameTableBound takes every record of a table and then one more: the
// record past the table's size panics with the table's message. A record put
// back keeps its entry and comes back zeroed.
func TestFrameTableBound(t *testing.T) {
	tab := newFrameTable("send", 4)
	var recs []*frame
	seen := map[uint16]bool{}
	for i := 0; i < 4; i++ {
		fr := tab.get()
		if seen[fr.entry] || fr != &tab.recs[fr.entry] {
			t.Fatalf("get %d returned entry %d twice or off its slot", i, fr.entry)
		}
		seen[fr.entry] = true
		recs = append(recs, fr)
	}
	want := "firmware: send frame table full: more than 4 frames live"
	if got := panicText(func() { tab.get() }); got != want {
		t.Errorf("fifth get: panic %q, want %q", got, want)
	}
	recs[2].idx, recs[2].pos, recs[2].buf, recs[2].size = 7, 7, 7, 7
	tab.put(recs[2])
	if fr := tab.get(); fr != recs[2] || *fr != (frame{entry: fr.entry}) {
		t.Errorf("get after put = %+v at %p, want the zeroed record %p", *fr, fr, recs[2])
	}
}

// TestFrameTablesFollowRings checks what New sizes by: the send table by the
// host send ring, the receive table by the receive buffer slots, and each
// ordering ring's frame array by the smaller of its flags and its table.
func TestFrameTablesFollowRings(t *testing.T) {
	fw := newRig(1).fw
	if send, recv := fw.FrameTables(); send != 512 || recv != rxSlots {
		t.Errorf("FrameTables() = %d, %d, want 512, %d", send, recv, rxSlots)
	}
	for _, r := range fw.rings {
		if len(r.frames) != 512 {
			t.Errorf("ring %d holds %d frames, want 512", r.index(), len(r.frames))
		}
	}
	for _, c := range []struct{ bits, live, want int }{
		{FlagBits, 512, 512},
		{FlagBits, 16, 16},
		{FlagBits, 3, 4},
		{RecvFlagBits(8), rxSlots, 512},
		{64, 100, 64},
	} {
		var r orderRing
		r.init(mem.NewScratchpad(4), FlagsSend, c.bits, c.live)
		if len(r.frames) != c.want || r.mask != uint64(c.want-1) {
			t.Errorf("%d flags, %d live: %d frames (mask %#x), want %d", c.bits, c.live, len(r.frames), r.mask, c.want)
		}
	}
}

// TestAdmitOccupiedPanics admits one frame more than a ring's frame array
// holds with none committed: the admission lands on an occupied entry and
// panics instead of overwriting a live frame.
func TestAdmitOccupiedPanics(t *testing.T) {
	r := orderRing{q: -1}
	r.init(mem.NewScratchpad(4), FlagsSend, FlagBits, 4)
	frs := make([]frame, 5)
	for i := 0; i < 4; i++ {
		r.admit(&frs[i])
	}
	if r.at(3) != &frs[3] || frs[3].pos != 3 {
		t.Fatalf("position 3 holds %p (pos %d), want %p", r.at(3), frs[3].pos, &frs[3])
	}
	want := "firmware: ring 0 admits position 4 onto occupied entry 0"
	if got := panicText(func() { r.admit(&frs[4]) }); got != want {
		t.Errorf("fifth admit: panic %q, want %q", got, want)
	}
}
