package core

import (
	"encoding/json"
	"testing"

	"repro/internal/ethernet"
	"repro/internal/faults"
	"repro/internal/sim"
	"repro/internal/workload"
)

// runTraffic runs a hostile-traffic configuration briefly, with payload
// validation on so corruption cannot hide.
func runTraffic(t *testing.T, cfg Config, udp int, ts workload.TrafficSpec) Report {
	t.Helper()
	n := New(cfg)
	if err := n.AttachTraffic(udp, ts, true); err != nil {
		t.Fatalf("AttachTraffic(%+v): %v", ts, err)
	}
	return n.Run(200*sim.Microsecond, 200*sim.Microsecond)
}

// requireSurvival asserts the properties every traffic class must preserve:
// the NIC keeps delivering valid frames in order, uncorrupted, with no
// conservation-invariant violations.
func requireSurvival(t *testing.T, r Report) {
	t.Helper()
	if r.Traffic == nil {
		t.Fatal("report has no traffic section")
	}
	if r.InvariantViolations != 0 {
		t.Errorf("invariant violations: %d", r.InvariantViolations)
	}
	if r.TxOutOfOrder+r.RxOutOfOrder != 0 {
		t.Errorf("ordering violated: tx %d rx %d", r.TxOutOfOrder, r.RxOutOfOrder)
	}
	if r.RxCorrupt != 0 {
		t.Errorf("corrupt deliveries: %d", r.RxCorrupt)
	}
	if r.RxFPS == 0 || r.TxFPS == 0 {
		t.Errorf("no progress under hostile traffic: tx %.0f rx %.0f fps", r.TxFPS, r.RxFPS)
	}
}

func TestHostileClassesRejectedDeterministically(t *testing.T) {
	cases := []struct {
		class   string
		rejects func(tr TrafficReport) uint64
	}{
		{workload.ClassRunt, func(tr TrafficReport) uint64 { return tr.RuntDrops }},
		{workload.ClassOversize, func(tr TrafficReport) uint64 { return tr.OversizeDrops }},
		{workload.ClassBadCRC, func(tr TrafficReport) uint64 { return tr.BadCRCDrops }},
		{workload.ClassMcast, func(tr TrafficReport) uint64 { return tr.FilteredDrops }},
	}
	for _, c := range cases {
		t.Run(c.class, func(t *testing.T) {
			r := runTraffic(t, DefaultConfig(), 1472, workload.TrafficSpec{Class: c.class, Seed: 1})
			requireSurvival(t, r)
			tr := *r.Traffic
			if tr.HostileOffered == 0 {
				t.Fatal("no hostile frames offered during the window")
			}
			if got := c.rejects(tr); got == 0 {
				t.Errorf("%s: class counter is zero (report: offered %d hostile %d, rejects %d/%d/%d/%d)",
					c.class, tr.Offered, tr.HostileOffered,
					tr.RuntDrops, tr.OversizeDrops, tr.BadCRCDrops, tr.FilteredDrops)
			}
			// Every hostile frame must land in exactly the per-class reject
			// counters; none may leak into delivery as corruption (checked
			// above via RxCorrupt with payload validation on).
			if tr.HostileRejected() == 0 {
				t.Error("hostile frames offered but none rejected")
			}
		})
	}
}

func TestJumboDeliveryWithPayloadValidation(t *testing.T) {
	cfg := DefaultConfig()
	cfg.JumboFrames = true
	r := runTraffic(t, cfg, ethernet.JumboMaxUDPPayload,
		workload.TrafficSpec{Class: workload.ClassJumbo, Seed: 1})
	requireSurvival(t, r)
	if r.Traffic.HostileRejected() != 0 {
		t.Errorf("well-formed jumbo frames rejected: %d", r.Traffic.HostileRejected())
	}
	// Full-duplex jumbo exceeds the 10GbE line-rate pair by construction.
	if r.TotalGbps < 15 {
		t.Errorf("jumbo throughput %.2f Gb/s, want near 2x10G", r.TotalGbps)
	}
}

func TestAttachTrafficJumboRequiresConfig(t *testing.T) {
	n := New(DefaultConfig()) // JumboFrames unset
	err := n.AttachTraffic(ethernet.JumboMaxUDPPayload,
		workload.TrafficSpec{Class: workload.ClassJumbo}, false)
	if err == nil {
		t.Fatal("jumbo traffic accepted without Config.JumboFrames")
	}
	if _, err := ParseSLO("recv=bogus"); err == nil {
		t.Fatal("ParseSLO accepted a non-numeric bound")
	}
}

func TestPriorityCriticalFramesDelivered(t *testing.T) {
	r := runTraffic(t, DefaultConfig(), 1472,
		workload.TrafficSpec{Class: workload.ClassPriority, Arrival: workload.ArrivalSync, Seed: 1})
	requireSurvival(t, r)
	tr := *r.Traffic
	if tr.CritOffered == 0 {
		t.Fatal("priority class offered no critical frames")
	}
	if tr.CritDelivered == 0 {
		t.Error("no critical frames delivered")
	}
	if tr.CritDelivered > tr.CritOffered {
		t.Errorf("critical conservation: delivered %d > offered %d", tr.CritDelivered, tr.CritOffered)
	}
}

func TestSLOViolationDetected(t *testing.T) {
	n := New(DefaultConfig())
	if err := n.AttachTraffic(1472, workload.TrafficSpec{Class: workload.ClassMixed, Seed: 1}, false); err != nil {
		t.Fatal(err)
	}
	// Mixed small frames at line rate overrun firmware capacity (the Figure-8
	// wall); an absurdly tight drop budget must therefore register.
	if err := n.AttachSLO(SLO{MaxDropFrac: 0.0001}); err != nil {
		t.Fatal(err)
	}
	r := n.Run(200*sim.Microsecond, 200*sim.Microsecond)
	if r.SLO == nil {
		t.Fatal("report has no SLO section")
	}
	if r.SLO.Violations == 0 {
		t.Fatal("tight drop budget not violated")
	}
	found := false
	for _, c := range r.SLO.Checks {
		if c.Name == "drop_frac" {
			found = true
			if c.Pass {
				t.Errorf("drop_frac passed with got %g against bound %g", c.Got, c.Bound)
			}
			if c.Got <= c.Bound {
				t.Errorf("drop_frac got %g within bound %g yet counted violated", c.Got, c.Bound)
			}
		}
	}
	if !found {
		t.Error("no drop_frac check in SLO report")
	}
}

func TestSLOCleanPassAndCheckOrder(t *testing.T) {
	n := New(DefaultConfig())
	if err := n.AttachTraffic(1472, workload.TrafficSpec{Class: workload.ClassUniform, Seed: 1}, false); err != nil {
		t.Fatal(err)
	}
	if err := n.AttachSLO(SLO{RecvP99Us: 1e6, SendP99Us: 1e6, MaxDropFrac: 0.99}); err != nil {
		t.Fatal(err)
	}
	r := n.Run(200*sim.Microsecond, 200*sim.Microsecond)
	if r.SLO == nil {
		t.Fatal("report has no SLO section")
	}
	if r.SLO.Violations != 0 {
		t.Fatalf("generous SLO violated %d time(s): %+v", r.SLO.Violations, r.SLO.Checks)
	}
	if r.Latency == nil {
		t.Fatal("latency bound armed but no latency section (AttachSLO must enable obs)")
	}
	// The check list is a fixed, ordered schema — reports must be byte-stable.
	want := []string{"recv_p99_us", "send_p99_us", "drop_frac", "ordering", "invariants", "progress"}
	if len(r.SLO.Checks) != len(want) {
		t.Fatalf("%d checks, want %d", len(r.SLO.Checks), len(want))
	}
	for i, c := range r.SLO.Checks {
		if c.Name != want[i] {
			t.Errorf("check %d = %q, want %q", i, c.Name, want[i])
		}
		if !c.Pass {
			t.Errorf("check %q failed: bound %g got %g", c.Name, c.Bound, c.Got)
		}
	}
}

func TestParseSLO(t *testing.T) {
	good := map[string]SLO{
		"":                                 {},
		"recv=400":                         {RecvP99Us: 400},
		"recv_p99_us=400,send_p99_us=1300": {RecvP99Us: 400, SendP99Us: 1300},
		"send=10, drops=0.05":              {SendP99Us: 10, MaxDropFrac: 0.05},
		"max_drop_frac=0.5,recv=1,send=2":  {RecvP99Us: 1, SendP99Us: 2, MaxDropFrac: 0.5},
	}
	for in, want := range good {
		got, err := ParseSLO(in)
		if err != nil {
			t.Errorf("ParseSLO(%q): %v", in, err)
		} else if got != want {
			t.Errorf("ParseSLO(%q) = %+v, want %+v", in, got, want)
		}
	}
	for _, in := range []string{
		"recv", "recv=x", "bogus=1", "recv=-4", "drops=1.5",
		"drops=NaN", "recv=NaN", "send=+Inf", "recv=Inf", "send=-Inf", "drops=inf",
	} {
		if _, err := ParseSLO(in); err == nil {
			t.Errorf("ParseSLO(%q) accepted", in)
		}
	}
}

// TestHostileReportDeterministic: the full adversarial stack — hostile
// traffic, fault plan, armed SLO with latency observation — must still
// produce byte-identical reports run to run.
func TestHostileReportDeterministic(t *testing.T) {
	run := func() []byte {
		n := New(DefaultConfig())
		if err := n.AttachTraffic(1472, workload.TrafficSpec{
			Class: workload.ClassBadCRC, Arrival: workload.ArrivalPareto, Seed: 9,
		}, true); err != nil {
			t.Fatal(err)
		}
		if err := n.AttachFaults(faults.Plan{Seed: 9, Events: []faults.Event{
			{Kind: faults.RxCorrupt, At: 60 * sim.Microsecond, Count: 2},
			{Kind: faults.DMALoss, At: 90 * sim.Microsecond, Count: 1},
		}}); err != nil {
			t.Fatal(err)
		}
		if err := n.AttachSLO(SLO{RecvP99Us: 1e6, SendP99Us: 1e6, MaxDropFrac: 0.9}); err != nil {
			t.Fatal(err)
		}
		r := n.Run(150*sim.Microsecond, 150*sim.Microsecond)
		b, err := json.Marshal(r)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	a, b := run(), run()
	if string(a) != string(b) {
		t.Fatalf("hostile reports differ between identical runs:\n%s\n%s", a, b)
	}
}
