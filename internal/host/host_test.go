package host

import (
	"testing"

	"repro/internal/ethernet"
	"repro/internal/sim"
)

type fakeSource struct {
	frames []*Frame
}

func (s *fakeSource) Next() *Frame {
	if len(s.frames) == 0 {
		return nil
	}
	f := s.frames[0]
	s.frames = s.frames[1:]
	return f
}

func frames(n int) []*Frame {
	out := make([]*Frame, n)
	for i := range out {
		out[i] = &Frame{Seq: uint64(i), UDPSize: 1472, Size: 1518}
	}
	return out
}

func TestDelayFiresAfterLatency(t *testing.T) {
	h := New(Config{DMALatencyCycles: 5, SendRing: 8, RecvRing: 8, PostBatch: 4}, 1)
	fired := -1
	h.Delay(sim.CompleteFunc(func(uint32) { fired = 0 }), 0)
	for i := 0; i < 10; i++ {
		if fired >= 0 {
			break
		}
		h.Tick(uint64(i))
		if fired == -1 && i < 4 {
			continue
		}
		if fired == 0 && i != 4 {
			t.Fatalf("fired at tick %d, want 4", i)
		}
	}
	if fired != 0 {
		t.Fatal("delayed function never fired")
	}
}

func TestDriverPostsTwoBDsPerFrame(t *testing.T) {
	h := New(Config{DMALatencyCycles: 1, SendRing: 16, RecvRing: 8, PostBatch: 64}, 1)
	h.Source = &fakeSource{frames: frames(4)}
	h.Tick(0)
	if got := h.PostedSendBDs(); got != 8 {
		t.Errorf("posted BDs = %d, want 8 (two per frame)", got)
	}
	bds := h.TakeSendBDs(8)
	if len(bds) != 8 {
		t.Fatalf("took %d", len(bds))
	}
	if bds[0].Len != HeaderBytes || bds[0].Last {
		t.Errorf("first BD = %+v, want %d-byte non-last header", bds[0], HeaderBytes)
	}
	if bds[1].Len != 1518-HeaderBytes || !bds[1].Last {
		t.Errorf("second BD = %+v, want payload/last", bds[1])
	}
	if bds[0].Frame != bds[1].Frame {
		t.Error("BD pair references different frames")
	}
}

func TestSendRingBackpressure(t *testing.T) {
	h := New(Config{DMALatencyCycles: 1, SendRing: 4, RecvRing: 8, PostBatch: 64}, 1)
	h.Source = &fakeSource{frames: frames(10)}
	h.Tick(0)
	if got := h.PostedSendBDs(); got != 8 {
		t.Errorf("posted BDs = %d, want 8 (ring limit of 4 frames)", got)
	}
	h.TakeSendBDs(8)
	h.Tick(1)
	if got := h.PostedSendBDs(); got != 0 {
		t.Errorf("posted %d more BDs without completions", got)
	}
	h.CompleteSend(2)
	h.Tick(2)
	if got := h.PostedSendBDs(); got != 4 {
		t.Errorf("posted BDs after completions = %d, want 4", got)
	}
}

func TestRecvPoolReplenishment(t *testing.T) {
	h := New(Config{DMALatencyCycles: 1, SendRing: 4, RecvRing: 16, PostBatch: 64}, 1)
	h.Tick(0)
	if got := h.PostedRecvBDs(0); got != 16 {
		t.Fatalf("posted recv BDs = %d, want 16", got)
	}
	if got := h.TakeRecvBDs(0, 20); got != 16 {
		t.Errorf("took %d, want 16", got)
	}
	// Deliver four frames; the driver replenishes on the next tick.
	for i := 0; i < 4; i++ {
		h.DeliverFrame(&Frame{Seq: uint64(i), UDPSize: 100, Size: 146}, 0)
	}
	h.Tick(1)
	if got := h.PostedRecvBDs(0); got != 4 {
		t.Errorf("replenished %d, want 4", got)
	}
}

func TestDeliveryOrderValidation(t *testing.T) {
	h := New(DefaultConfig(), 1)
	h.Tick(0)
	h.TakeRecvBDs(0, 4)
	h.DeliverFrame(&Frame{Seq: 0}, 0)
	h.DeliverFrame(&Frame{Seq: 2}, 0) // forward gap (a drop): not a violation
	h.DeliverFrame(&Frame{Seq: 3}, 0)
	if h.RecvOutOfOrd.Value() != 0 {
		t.Errorf("out of order count after forward gap = %d, want 0", h.RecvOutOfOrd.Value())
	}
	h.DeliverFrame(&Frame{Seq: 1}, 0) // backward step: reordering
	if h.RecvOutOfOrd.Value() != 1 {
		t.Errorf("out of order count = %d, want 1", h.RecvOutOfOrd.Value())
	}
	if h.RecvDelivered.Value() != 4 {
		t.Errorf("delivered = %d", h.RecvDelivered.Value())
	}
}

// TestConfigValidateRxQueues: New provisions the receive queues it is
// given and refuses a count below one.
func TestConfigValidateRxQueues(t *testing.T) {
	if h := New(DefaultConfig(), 4); h.RxQueues() != 4 {
		t.Errorf("New with 4 receive queues built %d", h.RxQueues())
	}
	for _, n := range []int{0, -1, -8} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("New accepted %d receive queues", n)
				}
			}()
			New(DefaultConfig(), n)
		}()
	}
}

func TestMultiQueueRingsAreIndependent(t *testing.T) {
	h := New(Config{DMALatencyCycles: 1, SendRing: 4, RecvRing: 8, PostBatch: 64}, 4)
	h.Tick(0)
	for q := 0; q < 4; q++ {
		if got := h.PostedRecvBDs(q); got != 8 {
			t.Fatalf("queue %d posted %d BDs, want a full ring of 8", q, got)
		}
	}
	h.TakeRecvBDs(1, 8)
	if got := h.PostedRecvBDs(0); got != 8 {
		t.Errorf("taking queue 1's BDs drained queue 0 to %d", got)
	}
	// Per-queue sequence order: even seqs on queue 0, odd on queue 1. Each
	// queue sees only forward steps, so no violation is flagged even though
	// the interleaved global order inverts constantly.
	h.TakeRecvBDs(0, 8)
	h.DeliverFrame(&Frame{Seq: 0}, 0)
	h.DeliverFrame(&Frame{Seq: 3}, 1)
	h.DeliverFrame(&Frame{Seq: 2}, 0) // global inversion (3 then 2), per-queue forward
	h.DeliverFrame(&Frame{Seq: 5}, 1)
	if h.RecvOutOfOrd.Value() != 0 {
		t.Errorf("per-queue order violations = %d, want 0", h.RecvOutOfOrd.Value())
	}
	if h.RecvCrossReord.Value() != 1 {
		t.Errorf("cross-queue reorder count = %d, want 1", h.RecvCrossReord.Value())
	}
	// A backward step within one queue is the real invariant violation.
	h.DeliverFrame(&Frame{Seq: 1}, 1)
	if h.RecvOutOfOrd.Value() != 1 || h.QueueOutOfOrd(1) != 1 || h.QueueOutOfOrd(0) != 0 {
		t.Errorf("violations global=%d q0=%d q1=%d, want 1 only on queue 1",
			h.RecvOutOfOrd.Value(), h.QueueOutOfOrd(0), h.QueueOutOfOrd(1))
	}
	if h.QueueDelivered(0) != 2 || h.QueueDelivered(1) != 3 {
		t.Errorf("per-queue delivered = %d/%d, want 2/3", h.QueueDelivered(0), h.QueueDelivered(1))
	}
	if h.RecvDelivered.Value() != 5 {
		t.Errorf("total delivered = %d, want 5", h.RecvDelivered.Value())
	}
}

func TestSingleQueueNeverCountsCrossReorder(t *testing.T) {
	h := New(DefaultConfig(), 1)
	h.Tick(0)
	h.TakeRecvBDs(0, 3)
	h.DeliverFrame(&Frame{Seq: 2}, 0)
	h.DeliverFrame(&Frame{Seq: 0}, 0)
	h.DeliverFrame(&Frame{Seq: 1}, 0)
	if h.RecvCrossReord.Value() != 0 {
		t.Errorf("single ring counted %d cross-queue reorders", h.RecvCrossReord.Value())
	}
	if h.RecvOutOfOrd.Value() != 1 {
		t.Errorf("out of order = %d, want 1 (2,0 backward step; 0,1 forward)", h.RecvOutOfOrd.Value())
	}
}

func TestCorruptFrameDetected(t *testing.T) {
	h := New(DefaultConfig(), 1)
	h.Tick(0)
	h.TakeRecvBDs(0, 1)
	h.DeliverFrame(&Frame{Seq: 0, UDPSize: 100, Size: 146, Wire: make([]byte, 146)}, 0)
	if h.RecvCorrupt.Value() != 1 {
		t.Errorf("corrupt count = %d, want 1 for a zeroed frame", h.RecvCorrupt.Value())
	}
}

func TestOverCompletionPanics(t *testing.T) {
	h := New(DefaultConfig(), 1)
	defer func() {
		if recover() == nil {
			t.Fatal("CompleteSend beyond postings did not panic")
		}
	}()
	h.CompleteSend(1)
}

func TestHeaderBytesConstant(t *testing.T) {
	if HeaderBytes != 42 {
		t.Errorf("HeaderBytes = %d, want 42 (the paper's header transfer size)", HeaderBytes)
	}
	_ = ethernet.MaxFrame
}
