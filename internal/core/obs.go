package core

import (
	"fmt"

	"repro/internal/cpu"
	"repro/internal/firmware"
	"repro/internal/obs"
)

// EnableObs attaches a frame-lifecycle recorder to the assembled controller.
// Every recorder feeds the send/receive latency trackers the report's
// Latency section is built from. A cfg.Events > 0 also keeps an event trace:
// per-core firmware-stream spans, per-assist activity tracks, per-frame
// lifecycle instants and fault-event instants, for WriteChromeTrace.
//
// Every hook is a passive observer inside an existing callback — enabling
// observation cannot change simulated behaviour, only record it. Call after
// New (and after AttachFaults, if any — though either order works), before
// Run. A second call returns the existing recorder, first adding the trace
// if this call asks for one and the recorder keeps none (AttachSLO creates a
// latency-only recorder).
func (n *NIC) EnableObs(cfg obs.Config) *obs.Recorder {
	rec := n.obs
	if rec == nil {
		rec = obs.NewRecorder(obs.Config{}, n.Engine.Now)
		n.obs = rec
		// Multi-queue builds additionally track per-receive-queue latency
		// and occupancy; single-ring latency reports are unchanged.
		rec.EnableRecvQueues(n.Host.RxQueues())
		n.FW.Obs = rec
		n.As.MACRx.Obs = rec
		n.Host.OnPost = func() { rec.FrameOrigin(obs.Send) }
	}
	if rec.KeepTrace(cfg) {
		n.traceHooks(rec)
	}
	return rec
}

// traceHooks registers the trace tracks, in a fixed order, and installs the
// hooks that only feed the event ring.
func (n *NIC) traceHooks(rec *obs.Recorder) {
	// Per-core tracks: one span per firmware work stream. Idle poll passes
	// are skipped — they dominate event volume without carrying information
	// (idle fraction is already in the report).
	for i, c := range n.Cores {
		trk := rec.AddTrack(fmt.Sprintf("core %d", i))
		c.OnStreamBegin = func(s *cpu.Stream) {
			if s.AcctID != firmware.AcctIdle {
				rec.Begin(trk, s.Name)
			}
		}
		c.OnStreamEnd = func(s *cpu.Stream) {
			if s.AcctID != firmware.AcctIdle {
				rec.End(trk, s.Name)
			}
		}
	}

	// Assist tracks: DMA engines expose in-flight job counters, MACs expose
	// wire-occupancy spans (MACRx already holds the recorder for its
	// receive-latency origins).
	n.As.DMARead.SetObs(rec, rec.AddTrack("dma-read"))
	n.As.DMAWrite.SetObs(rec, rec.AddTrack("dma-write"))
	n.As.MACTx.Obs, n.As.MACTx.ObsTrack = rec, rec.AddTrack("mac-tx")
	n.As.MACRx.ObsTrack = rec.AddTrack("mac-rx")

	// Frame-lifecycle tracks (sampled stage instants).
	rec.SetFrameTrack(obs.Send, rec.AddTrack("frames tx"))
	rec.SetFrameTrack(obs.Recv, rec.AddTrack("frames rx"))

	// Fault instants. The track exists whether or not a plan is attached, so
	// the trace's track metadata does not depend on attach order.
	n.obsFaultTrack = rec.AddTrack("faults")
	n.bindFaultTrace()
}

// bindFaultTrace routes injector plan events onto the faults track; called
// from both traceHooks and AttachFaults so the binding happens regardless of
// which runs first.
func (n *NIC) bindFaultTrace() {
	if !n.obs.Tracing() || n.inj == nil {
		return
	}
	rec, trk := n.obs, n.obsFaultTrack
	n.inj.Trace = func(name string) { rec.Instant(trk, name) }
}
