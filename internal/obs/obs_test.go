package obs

import (
	"testing"

	"repro/internal/sim"
)

// fakeClock is a settable time source for recorder tests.
type fakeClock struct{ at sim.Picoseconds }

func (c *fakeClock) now() sim.Picoseconds { return c.at }

func TestNilRecorderIsNoOp(t *testing.T) {
	var r *Recorder
	// None of these may panic.
	r.Begin(0, "x")
	r.End(0, "x")
	r.Instant(0, "x")
	r.Counter(0, "x", 1)
	r.FrameOrigin(Send)
	r.FrameStage(Send, SendBDFetched, 0)
	r.ResetLatency()
	if total, dropped := r.EventsRecorded(); total != 0 || dropped != 0 {
		t.Errorf("EventsRecorded() = %d, %d on nil recorder", total, dropped)
	}
	if rep := r.LatencyReport(); rep != nil {
		t.Errorf("LatencyReport() = %v on nil recorder, want nil", rep)
	}
}

// TestFrameLatencyPipeline walks two send frames through every stage and
// checks totals and per-stage residencies.
func TestFrameLatencyPipeline(t *testing.T) {
	clk := &fakeClock{}
	r := NewRecorder(Config{Events: 64}, clk.now)

	run := func(seq uint64, start sim.Picoseconds) {
		clk.at = start
		r.FrameOrigin(Send) // posted
		for s := SendBDFetched; s < NumSendStages; s++ {
			clk.at += sim.Microsecond // 1 µs per stage
			r.FrameStage(Send, s, seq)
		}
	}
	run(0, 10*sim.Microsecond)
	run(1, 50*sim.Microsecond)

	rep := r.LatencyReport()
	if rep == nil {
		t.Fatal("LatencyReport() = nil")
	}
	d := rep.Send
	if d.Frames != 2 {
		t.Fatalf("Send.Frames = %d, want 2", d.Frames)
	}
	// Both frames traverse 7 inter-stage hops of 1 µs: total 7 µs each.
	for _, q := range []float64{d.P50Us, d.P90Us, d.P99Us, d.MaxUs} {
		if q != 7 {
			t.Errorf("quantile = %v µs, want 7", q)
		}
	}
	if len(d.Stages) != NumSendStages-1 {
		t.Fatalf("len(Stages) = %d, want %d", len(d.Stages), NumSendStages-1)
	}
	if d.Stages[0].Name != "posted->bd_fetched" {
		t.Errorf("Stages[0].Name = %q", d.Stages[0].Name)
	}
	for _, st := range d.Stages {
		if st.Frames != 2 || st.MeanUs != 1 || st.MaxUs != 1 {
			t.Errorf("stage %s: frames %d mean %v max %v, want 2/1/1",
				st.Name, st.Frames, st.MeanUs, st.MaxUs)
		}
	}
	if rep.Recv.Frames != 0 {
		t.Errorf("Recv.Frames = %d, want 0", rep.Recv.Frames)
	}
}

// TestFrameLatencyMissingOrigin covers observation enabled mid-stream: a
// frame whose origin was never recorded measures from its first indexed
// stage instead of time zero.
func TestFrameLatencyMissingOrigin(t *testing.T) {
	clk := &fakeClock{}
	r := NewRecorder(Config{Events: 64}, clk.now)
	clk.at = 100 * sim.Microsecond
	for s := RecvBuffered; s < NumRecvStages; s++ {
		r.FrameStage(Recv, s, 7)
		clk.at += 2 * sim.Microsecond
	}
	d := r.LatencyReport().Recv
	if d.Frames != 1 {
		t.Fatalf("Recv.Frames = %d, want 1", d.Frames)
	}
	// 4 hops after the first indexed stage, 2 µs each.
	if d.MaxUs != 8 {
		t.Errorf("MaxUs = %v, want 8", d.MaxUs)
	}
	// The arrived->buffered residency has no origin endpoint and must not
	// contribute.
	if st := d.Stages[0]; st.Name != "arrived->buffered" || st.Frames != 0 {
		t.Errorf("Stages[0] = %+v, want arrived->buffered with 0 frames", st)
	}
}

func TestResetLatencyKeepsInFlightFrames(t *testing.T) {
	clk := &fakeClock{}
	r := NewRecorder(Config{Events: 64}, clk.now)

	clk.at = 10 * sim.Microsecond
	r.FrameOrigin(Send)
	clk.at = 11 * sim.Microsecond
	r.FrameStage(Send, SendBDFetched, 0)

	// The measurement boundary: aggregates clear, the in-flight frame's
	// timestamps survive.
	r.ResetLatency()

	for s := SendDMAStart; s < NumSendStages; s++ {
		clk.at += sim.Microsecond
		r.FrameStage(Send, s, 0)
	}
	d := r.LatencyReport().Send
	if d.Frames != 1 {
		t.Fatalf("Send.Frames = %d, want 1", d.Frames)
	}
	// Origin at 10 µs, final stage at 11+6 = 17 µs.
	if d.MaxUs != 7 {
		t.Errorf("MaxUs = %v, want 7 (latency measured across the reset)", d.MaxUs)
	}
}

func TestEventRingKeepsLast(t *testing.T) {
	clk := &fakeClock{}
	r := NewRecorder(Config{Events: 4}, clk.now)
	trk := r.AddTrack("t")
	for i := 0; i < 10; i++ {
		clk.at = sim.Picoseconds(i+1) * sim.Microsecond
		r.Instant(trk, "e")
	}
	total, dropped := r.EventsRecorded()
	if total != 10 || dropped != 6 {
		t.Errorf("EventsRecorded() = %d, %d, want 10, 6", total, dropped)
	}
}

func TestFrameSampling(t *testing.T) {
	clk := &fakeClock{at: sim.Microsecond}
	r := NewRecorder(Config{Events: 64, FrameSample: 4}, clk.now)
	r.SetFrameTrack(Send, r.AddTrack("frames tx"))
	for seq := uint64(0); seq < 8; seq++ {
		r.FrameStage(Send, SendBDFetched, seq)
	}
	// Only seq 0 and 4 land in the trace ring; latency sees all 8.
	if total, _ := r.EventsRecorded(); total != 2 {
		t.Errorf("EventsRecorded() = %d trace events, want 2 (sampled)", total)
	}
}

// TestLatencyOnlyRecorder checks that a recorder built without Events keeps
// no trace yet aggregates latency as a traced one does, and that KeepTrace
// adds the ring afterwards.
func TestLatencyOnlyRecorder(t *testing.T) {
	clk := &fakeClock{at: sim.Microsecond}
	r := NewRecorder(Config{}, clk.now)
	if r.Tracing() || r.ring != nil {
		t.Fatal("a recorder without Events keeps a trace ring")
	}
	trk := r.AddTrack("t")
	r.SetFrameTrack(Send, trk)
	r.Begin(trk, "x")
	r.End(trk, "x")
	r.Instant(trk, "x")
	r.Counter(trk, "x", 1)
	r.FrameOrigin(Send)
	for s := SendBDFetched; s < NumSendStages; s++ {
		clk.at += sim.Microsecond
		r.FrameStage(Send, s, 0)
	}
	if total, dropped := r.EventsRecorded(); total != 0 || dropped != 0 {
		t.Errorf("EventsRecorded() = %d, %d without a trace, want 0, 0", total, dropped)
	}
	if rep := r.LatencyReport(); rep == nil || rep.Send.Frames != 1 || rep.Send.MaxUs != 7 {
		t.Errorf("latency without a trace: %+v, want one 7 µs send frame", rep)
	}

	r.KeepTrace(Config{Events: 8, FrameSample: 2})
	if !r.Tracing() || len(r.ring) != 8 {
		t.Fatal("KeepTrace did not add an 8-event ring")
	}
	r.Instant(trk, "x")
	r.FrameStage(Send, SendBDFetched, 1) // not sampled
	r.FrameStage(Send, SendBDFetched, 2)
	if total, _ := r.EventsRecorded(); total != 2 {
		t.Errorf("EventsRecorded() = %d after KeepTrace, want 2", total)
	}
	r.KeepTrace(Config{Events: 64})
	if len(r.ring) != 8 {
		t.Error("a second KeepTrace replaced the ring")
	}
}
