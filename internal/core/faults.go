package core

import (
	"fmt"

	"repro/internal/faults"
	"repro/internal/sim"
)

// FaultReport summarizes a run's fault injection and recovery activity. It is
// present in a Report only when a fault plan was attached; values are run
// totals (injection instants are absolute, so windowed diffs would split
// events arbitrarily).
//
//nic:hashstable 66b9c6700eeb
type FaultReport struct {
	Plan string `json:"plan"`
	Seed int64  `json:"seed"`

	Injected faults.Counters `json:"injected"`

	// Firmware recovery.
	DMARetried       uint64 `json:"dma_retried"`
	DMARecovered     uint64 `json:"dma_recovered"`
	DMADupSuppressed uint64 `json:"dma_dup_suppressed"`
	OutstandingDMAs  int    `json:"outstanding_dmas"`
	Takeovers        uint64 `json:"takeovers"`
	StreamsRescued   uint64 `json:"streams_rescued"`
	FlagRepairs      uint64 `json:"flag_repairs"`

	// Hardware-level fault visibility.
	WireDrops    uint64 `json:"wire_drops"`
	CRCDrops     uint64 `json:"crc_drops"`
	MailboxLost  uint64 `json:"mailbox_lost"`
	StarvedTicks uint64 `json:"starved_ticks"`
}

// faultTarget adapts the assembled NIC to the injector's Target interface.
type faultTarget struct{ n *NIC }

func (t faultTarget) SetStarved(v bool)       { t.n.Host.SetStarved(v) }
func (t faultTarget) LoseMailboxWrites(k int) { t.n.Host.LoseMailboxWrites(k) }
func (t faultTarget) RecoveryScan()           { t.n.FW.RecoveryScan() }
func (t faultTarget) SabotageLeak(send bool)  { t.n.FW.SabotageLeak(send) }
func (t faultTarget) SabotageSwap(send bool)  { t.n.FW.SabotageSwap(send) }

// GateCore installs the core's pre-bound gate for its fault window and
// removes it when the window closes, so no window edge allocates.
func (t faultTarget) GateCore(core int, on bool) {
	var g func(uint64) bool
	if on {
		g = t.n.gates[core]
	}
	t.n.Cores[core].SetGate(g)
}

// StallBanks installs the pre-bound bank-stall hook while a bank is down.
func (t faultTarget) StallBanks(on bool) {
	var f func(int) bool
	if on {
		f = t.n.bankStall
	}
	t.n.Xbar.SetBankStall(f)
}

func (t faultTarget) TryTakeover(core int) bool {
	s, ok := t.n.Cores[core].Preempt()
	if !ok {
		return false
	}
	t.n.FW.TakeOver(core, s)
	return true
}

// AttachFaults arms a fault plan on the NIC: it validates the plan against
// the configuration, adds the fault event domain to the engine, arms firmware
// completion-timeout recovery, and installs the per-frame and per-completion
// injection hooks. The per-cycle hooks, a core's gate and the crossbar's
// bank stall, are bound here but installed only while their windows are
// open, so cores and crossbar sleep as in a fault-free run outside them.
// An empty plan is a no-op — no hooks are installed and the run is
// byte-identical to one with no plan at all. Call after New, before Run.
func (n *NIC) AttachFaults(plan faults.Plan) error {
	if plan.Empty() {
		return nil
	}
	if err := plan.Validate(n.Cfg.Cores, n.Cfg.ScratchpadBanks); err != nil {
		return err
	}
	if n.inj != nil {
		return fmt.Errorf("faults: a plan is already attached")
	}
	dom := sim.NewEventDomain("faults")
	n.Engine.AddDomain(dom)
	n.inj = faults.NewInjector(plan, n.Cfg.Cores, n.Cfg.ScratchpadBanks)
	n.FW.ArmRecovery(n.Engine.Now)

	n.As.MACRx.FaultVerdict = func(int) int { return n.inj.RxVerdict() }
	n.As.DMARead.SetCompletionFault(n.inj.DMAVerdict)
	n.As.DMAWrite.SetCompletionFault(n.inj.DMAVerdict)
	n.bankStall = n.inj.BankStalled
	n.gates = make([]func(uint64) bool, len(n.Cores))
	for i := range n.gates {
		n.gates[i] = n.inj.GateFor(i)
	}
	n.inj.Arm(dom, faultTarget{n})
	n.bindFaultTrace()
	return nil
}

// faultReport assembles the FaultReport, or nil when no plan is attached.
func (n *NIC) faultReport() *FaultReport {
	if n.inj == nil {
		return nil
	}
	fr := &FaultReport{
		Plan:     n.inj.Plan().String(),
		Seed:     n.inj.Plan().Seed,
		Injected: n.inj.Counters,

		Takeovers:      n.FW.Takeovers,
		StreamsRescued: n.FW.Rescued,
		FlagRepairs:    n.FW.FlagRepairs,

		WireDrops:    n.As.MACRx.WireDrops.Value(),
		CRCDrops:     n.As.MACRx.CorruptDrops.Value(),
		MailboxLost:  n.Host.MailboxLost.Value(),
		StarvedTicks: n.Host.StarvedTicks.Value(),
	}
	fr.DMARetried, fr.DMARecovered, fr.DMADupSuppressed = n.FW.RecoveryCounters()
	fr.OutstandingDMAs = n.FW.OutstandingDMAs()
	return fr
}
