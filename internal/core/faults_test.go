package core

import (
	"crypto/sha256"
	"encoding/hex"
	"math"
	"strings"
	"testing"

	"repro/internal/faults"
	"repro/internal/firmware"
	"repro/internal/sim"
)

// runWithPlan assembles a NIC, attaches the plan (empty = fault-free), and
// runs the standard acceptance window.
func runWithPlan(t *testing.T, cfg Config, plan faults.Plan) Report {
	t.Helper()
	n := New(cfg)
	n.AttachWorkload(1472, false)
	if err := n.AttachFaults(plan); err != nil {
		t.Fatalf("AttachFaults: %v", err)
	}
	return n.Run(200*sim.Microsecond, 500*sim.Microsecond)
}

// TestReferencePlanRecovery is the robustness acceptance criterion: under the
// reference plan — at least one event of every recoverable fault class — both
// paper operating points must complete with zero invariant violations,
// recover every lost DMA completion, absorb every duplicate, rescue the stuck
// core's work, and sustain at least 90% of fault-free throughput.
func TestReferencePlanRecovery(t *testing.T) {
	for _, tc := range []struct {
		name string
		cfg  Config
	}{
		{"sw-200", DefaultConfig()},
		{"rmw-166", RMWConfig()},
	} {
		t.Run(tc.name, func(t *testing.T) {
			clean := runWithPlan(t, tc.cfg, faults.Plan{})
			faulted := runWithPlan(t, tc.cfg, faults.Reference(200*sim.Microsecond))

			if faulted.InvariantViolations != 0 {
				t.Fatalf("invariant violations under reference plan: %d\n%s",
					faulted.InvariantViolations, strings.Join(faulted.InvariantDetail, "\n"))
			}
			fr := faulted.Faults
			if fr == nil {
				t.Fatal("faulted report has no fault section")
			}
			// Every class actually injected.
			if fr.Injected.RxCorrupt != 4 || fr.Injected.RxDrop != 4 {
				t.Errorf("rx injections corrupt=%d drop=%d, want 4/4", fr.Injected.RxCorrupt, fr.Injected.RxDrop)
			}
			if fr.Injected.DMALoss != 2 || fr.Injected.DMADup != 2 {
				t.Errorf("dma injections loss=%d dup=%d, want 2/2", fr.Injected.DMALoss, fr.Injected.DMADup)
			}
			if fr.Injected.BankStall == 0 || fr.Injected.CoreStuck != 1 || fr.Injected.CoreSlow != 1 ||
				fr.Injected.RingStarve != 1 || fr.Injected.MailboxLoss != 3 {
				t.Errorf("window injections incomplete: %+v", fr.Injected)
			}
			if fr.WireDrops != 4 || fr.CRCDrops != 4 {
				t.Errorf("MAC saw %d wire / %d crc drops, want 4/4", fr.WireDrops, fr.CRCDrops)
			}
			if fr.MailboxLost != 3 || fr.StarvedTicks == 0 {
				t.Errorf("host saw %d lost mailboxes (%d starved ticks), want 3 and >0", fr.MailboxLost, fr.StarvedTicks)
			}
			// Every lost completion recovered by timeout/retry; every duplicate
			// absorbed; the stuck core's work rescued by takeover.
			if fr.DMARetried != fr.Injected.DMALoss || fr.DMARecovered != fr.Injected.DMALoss {
				t.Errorf("recovery retried=%d recovered=%d, want both == %d lost",
					fr.DMARetried, fr.DMARecovered, fr.Injected.DMALoss)
			}
			if fr.DMADupSuppressed != fr.Injected.DMADup {
				t.Errorf("dup suppressed=%d, want %d", fr.DMADupSuppressed, fr.Injected.DMADup)
			}
			if fr.Takeovers != 1 || fr.StreamsRescued == 0 {
				t.Errorf("takeovers=%d rescued=%d, want 1 and >0", fr.Takeovers, fr.StreamsRescued)
			}
			// Graceful degradation: >= 90% of fault-free throughput.
			if faulted.TotalGbps < 0.9*clean.TotalGbps {
				t.Errorf("faulted throughput %.2f Gb/s < 90%% of fault-free %.2f Gb/s",
					faulted.TotalGbps, clean.TotalGbps)
			}
			// The clean run's report must carry no fault section at all.
			if clean.Faults != nil || clean.InvariantViolations != 0 {
				t.Errorf("fault-free run has fault artifacts: %+v violations=%d", clean.Faults, clean.InvariantViolations)
			}
		})
	}
}

// TestSabotageDetected: the fw_* sabotage kinds corrupt firmware state in
// ways recovery does not (and must not) paper over; the invariant checker has
// to flag them. This is the checker's own acceptance test — a seeded frame
// leak breaks conservation, a seeded ring swap breaks in-order delivery.
func TestSabotageDetected(t *testing.T) {
	for _, tc := range []struct {
		name   string
		plan   string
		detail string
	}{
		{"leak-send", "fw_leak@100us", "conservation"},
		{"leak-recv", "fw_leak@100us:1", "conservation"},
		{"swap-send", "fw_swap@100us", "in-order"},
		{"swap-recv", "fw_swap@100us:1", "in-order"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			plan, err := faults.ParsePlan(tc.plan)
			if err != nil {
				t.Fatal(err)
			}
			n := New(DefaultConfig())
			n.AttachWorkload(1472, false)
			if err := n.AttachFaults(plan); err != nil {
				t.Fatal(err)
			}
			rep := n.Run(50*sim.Microsecond, 150*sim.Microsecond)
			if rep.InvariantViolations == 0 {
				t.Fatal("sabotage went undetected")
			}
			found := false
			for _, d := range rep.InvariantDetail {
				if strings.Contains(d, tc.detail) {
					found = true
				}
			}
			if !found {
				t.Errorf("violation detail lacks %q:\n%s", tc.detail, strings.Join(rep.InvariantDetail, "\n"))
			}
		})
	}
}

func TestAttachFaultsValidatesPlan(t *testing.T) {
	n := New(DefaultConfig())
	n.AttachWorkload(1472, false)
	bad, err := faults.ParsePlan("core_stuck@10us+5us:9") // core 9 on a 6-core machine
	if err != nil {
		t.Fatal(err)
	}
	if err := n.AttachFaults(bad); err == nil {
		t.Error("AttachFaults accepted an out-of-range plan")
	}
	good := faults.Reference(0)
	if err := n.AttachFaults(good); err != nil {
		t.Fatalf("AttachFaults: %v", err)
	}
	if err := n.AttachFaults(good); err == nil {
		t.Error("AttachFaults accepted a second plan")
	}
}

func TestConfigValidate(t *testing.T) {
	mutate := func(f func(*Config)) Config {
		c := DefaultConfig()
		f(&c)
		return c
	}
	for _, tc := range []struct {
		name string
		cfg  Config
	}{
		{"zero-cores", mutate(func(c *Config) { c.Cores = 0 })},
		{"9-cores", mutate(func(c *Config) { c.Cores = 9 })},
		{"24-cores", mutate(func(c *Config) { c.Cores = 24 })},
		{"59-cores", mutate(func(c *Config) { c.Cores = 59 })},
		{"61-cores", mutate(func(c *Config) { c.Cores = 61 })},
		{"negative-mhz", mutate(func(c *Config) { c.CPUMHz = -1 })},
		{"99.9-mhz", mutate(func(c *Config) { c.CPUMHz = 99.9 })},
		{"800.1-mhz", mutate(func(c *Config) { c.CPUMHz = 800.1 })},
		{"1e-300-mhz", mutate(func(c *Config) { c.CPUMHz = 1e-300 })},
		{"1e6-mhz", mutate(func(c *Config) { c.CPUMHz = 1e6 })},
		{"inf-mhz", mutate(func(c *Config) { c.CPUMHz = math.Inf(1) })},
		{"zero-banks", mutate(func(c *Config) { c.ScratchpadBanks = 0 })},
		{"64-banks", mutate(func(c *Config) { c.ScratchpadBanks = 64 })},
		{"unaligned-scratchpad", mutate(func(c *Config) { c.ScratchpadBanks = 3 })},
		{"nan-mhz", mutate(func(c *Config) { c.CPUMHz = math.NaN() })},
		{"unknown-ordering", mutate(func(c *Config) { c.Ordering = 2 })},
		{"unknown-parallelism", mutate(func(c *Config) { c.Parallelism = -1 })},
		{"unknown-steering", mutate(func(c *Config) { c.RxQueues, c.Steering = 4, "random" })},
		{"slots-over-queue-flags", mutate(func(c *Config) { c.RxQueues = 16 })},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if err := tc.cfg.Validate(); err == nil {
				t.Error("Validate accepted an invalid config")
			}
		})
	}
	// The corners of the calibrated envelope run, in both orderings, long
	// enough for the invariant checker's forward-progress watchdog (every
	// 2^14 host cycles, ~123 µs) to fire.
	corner := func(mhz float64, ord firmware.Ordering) Config {
		return mutate(func(c *Config) { c.Cores, c.CPUMHz, c.Ordering = 8, mhz, ord })
	}
	for _, tc := range []struct {
		name string
		cfg  Config
	}{
		{"8-cores-100mhz-sw", corner(100, firmware.SoftwareOnly)},
		{"8-cores-100mhz-rmw", corner(100, firmware.RMWEnhanced)},
		{"8-cores-800mhz-sw", corner(800, firmware.SoftwareOnly)},
		{"8-cores-800mhz-rmw", corner(800, firmware.RMWEnhanced)},
		{"32-banks", mutate(func(c *Config) { c.ScratchpadBanks = 32 })},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if err := tc.cfg.Validate(); err != nil {
				t.Fatalf("Validate rejected %+v: %v", tc.cfg, err)
			}
			n := New(tc.cfg)
			n.AttachWorkload(1472, false)
			if r := n.Run(100*sim.Microsecond, 400*sim.Microsecond); r.InvariantViolations > 0 {
				t.Errorf("%d invariant violations: %v", r.InvariantViolations, r.InvariantDetail)
			}
		})
	}
	if err := DefaultConfig().Validate(); err != nil {
		t.Errorf("Validate rejected the default config: %v", err)
	}
	if err := RMWConfig().Validate(); err != nil {
		t.Errorf("Validate rejected the RMW config: %v", err)
	}
}

// TestTakeoverRunDigest pins the report of a reference-plan run whose stuck
// core is taken over, at both paper operating points. A takeover re-dispatches
// the preempted stream's remainder, which shares the evicted stream's ops, so
// any reuse of that memory while the remainder is outstanding (see the
// firmware's stream recycling) would change the simulated run.
func TestTakeoverRunDigest(t *testing.T) {
	for _, tc := range []struct {
		name string
		cfg  Config
		want string
	}{
		{"sw-200", DefaultConfig(), "3fa4d2a49034bb9d"},
		{"rmw-166", RMWConfig(), "50c9cd2589d7c3f1"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r := runWithPlan(t, tc.cfg, faults.Reference(200*sim.Microsecond))
			if r.Faults == nil || r.Faults.Takeovers != 1 || r.Faults.StreamsRescued == 0 {
				t.Fatalf("want one takeover that rescues streams, got %+v", r.Faults)
			}
			b, err := r.JSON()
			if err != nil {
				t.Fatal(err)
			}
			sum := sha256.Sum256(b)
			if got := hex.EncodeToString(sum[:8]); got != tc.want {
				t.Errorf("report digest %s, want %s", got, tc.want)
			}
		})
	}
}
