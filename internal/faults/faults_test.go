package faults

import (
	"encoding/json"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"repro/internal/sim"
)

func TestParsePlanRoundTrip(t *testing.T) {
	for _, src := range []string{
		"rx_corrupt@310us*4",
		"seed=7;rx_corrupt@310us*4,core_stuck@360us+20us:1,bank_error@340us+10us:2",
		"core_slow@100us+20us:2x4",
		"dma_loss@40us*2,dma_dup@60us*2,mailbox_loss@180us*3",
		"ring_starve@160us+10us,fw_leak@200us,fw_swap@210us:1",
	} {
		p, err := ParsePlan(src)
		if err != nil {
			t.Fatalf("ParsePlan(%q): %v", src, err)
		}
		// String must render back to syntax that parses to the same plan.
		again, err := ParsePlan(p.String())
		if err != nil {
			t.Fatalf("ParsePlan(String(%q)) = ParsePlan(%q): %v", src, p.String(), err)
		}
		if !reflect.DeepEqual(p, again) {
			t.Errorf("round trip of %q diverged:\n first: %+v\nsecond: %+v", src, p, again)
		}
	}
}

func TestParsePlanUnits(t *testing.T) {
	p, err := ParsePlan("rx_drop@1500ns")
	if err != nil {
		t.Fatal(err)
	}
	if want := sim.Picoseconds(1500) * sim.Nanosecond; p.Events[0].At != want {
		t.Errorf("At = %d ps, want %d", p.Events[0].At, want)
	}
	p, err = ParsePlan("rx_drop@2ms")
	if err != nil {
		t.Fatal(err)
	}
	if want := 2 * sim.Millisecond; p.Events[0].At != want {
		t.Errorf("At = %d ps, want %d", p.Events[0].At, want)
	}
}

func TestParsePlanErrors(t *testing.T) {
	for _, src := range []string{
		"bogus_kind@10us",
		"rx_drop",          // missing @time
		"rx_drop@",         // empty time
		"rx_drop@tenus",    // bad number
		"seed=1",           // seed without events separator
		"core_slow@1usxq2", // malformed factor survives as bad time
	} {
		if _, err := ParsePlan(src); err == nil {
			t.Errorf("ParsePlan(%q) succeeded, want error", src)
		}
	}
}

func TestPlanValidate(t *testing.T) {
	ok := func(src string) Plan {
		t.Helper()
		p, err := ParsePlan(src)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	for _, tc := range []struct {
		src     string
		wantErr bool
	}{
		{"core_stuck@10us+5us:5", false}, // core 5 valid on a 6-core machine
		{"core_stuck@10us+5us:6", true},  // out of range
		{"bank_error@10us+5us:4", true},  // bank out of range
		{"bank_error@10us:1", true},      // zero-length window
		{"core_slow@10us+5us:0x1", true}, // factor 1 is not a slowdown
		{"rx_drop@10us+5us", true},       // duration on a non-windowed kind
		{"fw_leak@10us:2", true},         // sabotage target must be 0/1
		{"rx_corrupt@10us*3,dma_loss@20us", false},
		// Same-kind windows on one target may touch but not overlap.
		{"bank_error@10us+10us:1,bank_error@15us+10us:1,core_slow@10us+10us:0x2,core_slow@15us+10us:0x3", true},
		{"core_slow@15us+10us:0x3,core_slow@10us+10us:0x2", true},
		{"core_stuck@10us:1,core_stuck@1ms+5us:1", true}, // no duration: open to the end
		{"ring_starve@10us+10us,ring_starve@19us+10us:1", true},
		{"bank_error@10us+10us:1,bank_error@20us+10us:1,core_stuck@10us+5us:0,core_stuck@15us:0", false},
		{"bank_error@10us+10us:1,bank_error@15us+10us:2,core_slow@10us+10us:0x2,core_stuck@15us+10us:0", false},
	} {
		err := ok(tc.src).Validate(6, 4)
		if tc.wantErr && err == nil {
			t.Errorf("Validate(%q) succeeded, want error", tc.src)
		}
		if !tc.wantErr && err != nil {
			t.Errorf("Validate(%q): %v", tc.src, err)
		}
	}
	err := ok("core_slow@10us+10us:0x2,bank_error@1us+1us,core_slow@15us+10us:0x3").Validate(6, 4)
	if want := "events 0 and 2 (core_slow, target 0): windows overlap; merge them into one window or start the later one at or after 20us"; err == nil || !strings.Contains(err.Error(), want) {
		t.Errorf("overlap error = %v, want it to say %q", err, want)
	}
	// Bounds checks are skipped with -1.
	if err := ok("core_stuck@10us+5us:63").Validate(-1, -1); err != nil {
		t.Errorf("Validate(-1,-1) applied bounds: %v", err)
	}
}

func TestPlanJSONStable(t *testing.T) {
	p := Reference(200 * sim.Microsecond)
	b1, err := json.Marshal(p)
	if err != nil {
		t.Fatal(err)
	}
	var q Plan
	if err := json.Unmarshal(b1, &q); err != nil {
		t.Fatal(err)
	}
	b2, err := json.Marshal(q)
	if err != nil {
		t.Fatal(err)
	}
	if string(b1) != string(b2) {
		t.Errorf("JSON round trip diverged:\n%s\n%s", b1, b2)
	}
}

func TestReferencePlanCoversEveryRecoverableClass(t *testing.T) {
	p := Reference(0)
	if err := p.Validate(6, 4); err != nil {
		t.Fatalf("reference plan invalid: %v", err)
	}
	for _, k := range []Kind{RxCorrupt, RxDrop, DMALoss, DMADup, BankError, CoreStuck, CoreSlow, RingStarve, MailboxLoss} {
		if !p.Has(k) {
			t.Errorf("reference plan lacks %s", k)
		}
	}
	if p.Has(FWLeak) || p.Has(FWSwap) {
		t.Error("reference plan must not include sabotage events")
	}
}

// TestInjectorVerdictsDeterministic: the injector's per-frame and
// per-completion decisions are functions of (plan, seed) and call order only,
// so two injectors fed identical queries must answer identically — and must
// inject exactly the armed number of faults.
func TestInjectorVerdictsDeterministic(t *testing.T) {
	run := func(seed int64) []int {
		inj := NewInjector(Plan{Seed: seed}, 6, 4)
		inj.rxDropLeft, inj.rxCorruptLeft = 4, 4
		inj.dmaLossLeft, inj.dmaDupLeft = 2, 2
		var out []int
		for i := 0; i < 100; i++ {
			out = append(out, inj.RxVerdict())
			drop, dup := inj.DMAVerdict()
			v := 0
			if drop {
				v |= 1
			}
			if dup {
				v |= 2
			}
			out = append(out, v)
		}
		if inj.Counters.RxDrop != 4 || inj.Counters.RxCorrupt != 4 {
			t.Errorf("rx injections = %d drop / %d corrupt, want 4/4",
				inj.Counters.RxDrop, inj.Counters.RxCorrupt)
		}
		if inj.Counters.DMALoss != 2 || inj.Counters.DMADup != 2 {
			t.Errorf("dma injections = %d loss / %d dup, want 2/2",
				inj.Counters.DMALoss, inj.Counters.DMADup)
		}
		return out
	}
	a, b := run(1), run(1)
	if !reflect.DeepEqual(a, b) {
		t.Error("two injectors with the same plan and seed diverged")
	}
	if c := run(99); reflect.DeepEqual(a, c) {
		t.Error("different seeds produced identical fault spacing (suspicious)")
	}
}

// fakeTarget records injector→machine control calls.
type fakeTarget struct {
	starved  []bool
	mailbox  []int
	takeover []int
	refuse   int // refuse this many takeover attempts before accepting
	scans    int
	sabotage []string
	gated    map[int]bool // cores whose gate is installed
	stall    bool         // bank-stall hook installed
}

func (f *fakeTarget) SetStarved(v bool)       { f.starved = append(f.starved, v) }
func (f *fakeTarget) LoseMailboxWrites(n int) { f.mailbox = append(f.mailbox, n) }
func (f *fakeTarget) RecoveryScan()           { f.scans++ }
func (f *fakeTarget) SabotageLeak(send bool)  { f.sabotage = append(f.sabotage, "leak") }
func (f *fakeTarget) SabotageSwap(send bool)  { f.sabotage = append(f.sabotage, "swap") }
func (f *fakeTarget) GateCore(core int, on bool) {
	if f.gated == nil {
		f.gated = map[int]bool{}
	}
	f.gated[core] = on
}
func (f *fakeTarget) StallBanks(on bool) { f.stall = on }

// hooks renders the installed hooks.
func (f *fakeTarget) hooks() string {
	s := fmt.Sprintf("stall=%v", f.stall)
	for c := 0; c < 8; c++ {
		if f.gated[c] {
			s += fmt.Sprintf(" gate%d", c)
		}
	}
	return s
}
func (f *fakeTarget) TryTakeover(core int) bool {
	f.takeover = append(f.takeover, core)
	if f.refuse > 0 {
		f.refuse--
		return false
	}
	return true
}

// TestInjectorArmSchedule drives the armed plan on a real engine and checks
// the state toggles, windows, takeover retries, and the recovery pump.
func TestInjectorArmSchedule(t *testing.T) {
	plan, err := ParsePlan("seed=3;bank_error@10us+5us:1,core_slow@12us+6us:2x4,core_stuck@20us:0,ring_starve@30us+5us,mailbox_loss@40us*3,fw_leak@45us,fw_swap@46us:1")
	if err != nil {
		t.Fatal(err)
	}
	inj := NewInjector(plan, 6, 4)
	tgt := &fakeTarget{refuse: 2}
	dom := sim.NewEventDomain("faults")
	clk := sim.NewDomain("clk", 100e6)
	eng := sim.NewEngine(clk)
	eng.AddDomain(dom)
	inj.Arm(dom, tgt)

	eng.RunFor(11 * sim.Microsecond)
	if got := tgt.hooks(); got != "stall=true" {
		t.Errorf("hooks at 11us = %q, want the bank-stall hook only", got)
	}
	if !inj.BankStalled(1) {
		t.Error("bank 1 not stalled inside its error window")
	}
	if inj.BankStalled(0) {
		t.Error("bank 0 stalled outside any window")
	}
	eng.RunFor(5 * sim.Microsecond) // now 16us: bank window over, core 2 slowed
	if got := tgt.hooks(); got != "stall=false gate2" {
		t.Errorf("hooks at 16us = %q, want core 2's gate only", got)
	}
	if inj.BankStalled(1) {
		t.Error("bank 1 still stalled after its window")
	}
	gate := inj.GateFor(2)
	if !gate(0) || gate(1) || gate(2) || gate(3) || !gate(4) {
		t.Error("slowed core gate is not 1-in-4")
	}
	eng.RunFor(10 * sim.Microsecond) // now 26us: stuck at 20us, takeover detect 23us + 2 retries
	if len(tgt.takeover) != 3 {
		t.Errorf("takeover attempts = %d, want 3 (2 refused + 1 accepted)", len(tgt.takeover))
	}
	if inj.Counters.TakeoverRetry != 2 || inj.Counters.TakeoversFired != 1 {
		t.Errorf("takeover counters retry=%d fired=%d, want 2/1",
			inj.Counters.TakeoverRetry, inj.Counters.TakeoversFired)
	}
	if !gate(1) { // slow window ended at 18us; the gate must be wide open again
		t.Error("slow gate still vetoing after its window")
	}
	eng.RunFor(24 * sim.Microsecond) // now 50us: everything fired
	if want := []bool{true, false}; !reflect.DeepEqual(tgt.starved, want) {
		t.Errorf("starve toggles = %v, want %v", tgt.starved, want)
	}
	if want := []int{3}; !reflect.DeepEqual(tgt.mailbox, want) {
		t.Errorf("mailbox arms = %v, want %v", tgt.mailbox, want)
	}
	if want := []string{"leak", "swap"}; !reflect.DeepEqual(tgt.sabotage, want) {
		t.Errorf("sabotage calls = %v, want %v", tgt.sabotage, want)
	}
	if tgt.scans < 20 {
		t.Errorf("recovery pump ran %d scans over 50us, want >= 20", tgt.scans)
	}
	if g := inj.GateFor(0); g(123) {
		t.Error("stuck core 0 gate should veto every cycle (no duration => stuck until takeover)")
	}
	// The stuck core without a duration stays gated.
	if got := tgt.hooks(); got != "stall=false gate0" {
		t.Errorf("hooks at 50us = %q, want core 0's gate only", got)
	}
}

// TestInjectorHookWindows checks that overlapping windows keep their hook
// installed until the last of them closes: a core both slowed and stuck
// stays gated until neither holds, and the bank-stall hook stays on while
// any bank is down.
func TestInjectorHookWindows(t *testing.T) {
	plan, err := ParsePlan("seed=1;core_slow@10us+10us:1x2,core_stuck@15us+10us:1,bank_error@10us+10us:0,bank_error@15us+10us:2")
	if err != nil {
		t.Fatal(err)
	}
	inj := NewInjector(plan, 2, 4)
	tgt := &fakeTarget{}
	dom := sim.NewEventDomain("faults")
	eng := sim.NewEngine(sim.NewDomain("clk", 100e6))
	eng.AddDomain(dom)
	inj.Arm(dom, tgt)
	for _, step := range []struct {
		until sim.Picoseconds
		want  string
	}{
		{9 * sim.Microsecond, "stall=false"},
		{11 * sim.Microsecond, "stall=true gate1"},
		{22 * sim.Microsecond, "stall=true gate1"},
		{26 * sim.Microsecond, "stall=false"},
	} {
		eng.RunFor(step.until - eng.Now())
		if got := tgt.hooks(); got != step.want {
			t.Errorf("at %v ps: hooks = %q, want %q", eng.Now(), got, step.want)
		}
	}
}

// TestInjectorTouchingWindows checks that a window may start at the instant
// an earlier window of the same kind on the same target ends, whichever of
// the two the plan lists first: the second window holds to its own end.
func TestInjectorTouchingWindows(t *testing.T) {
	first := "bank_error@10us+10us:1,core_slow@10us+10us:0x2,core_stuck@10us+10us:1,ring_starve@10us+10us"
	second := "bank_error@20us+10us:1,core_slow@20us+10us:0x3,core_stuck@20us+10us:1,ring_starve@20us+10us"
	for _, src := range []string{first + "," + second, second + "," + first} {
		plan, err := ParsePlan(src)
		if err != nil {
			t.Fatal(err)
		}
		if err := plan.Validate(2, 4); err != nil {
			t.Fatalf("Validate(%q): %v", src, err)
		}
		inj := NewInjector(plan, 2, 4)
		tgt := &fakeTarget{}
		dom := sim.NewEventDomain("faults")
		eng := sim.NewEngine(sim.NewDomain("clk", 100e6))
		eng.AddDomain(dom)
		inj.Arm(dom, tgt)
		for _, step := range []struct {
			until   sim.Picoseconds
			hooks   string
			starved bool
			every   uint64 // core 0 runs one cycle in every
		}{
			{15 * sim.Microsecond, "stall=true gate0 gate1", true, 2},
			{25 * sim.Microsecond, "stall=true gate0 gate1", true, 3},
			{31 * sim.Microsecond, "stall=false", false, 1},
		} {
			eng.RunFor(step.until - eng.Now())
			if got := tgt.hooks(); got != step.hooks {
				t.Errorf("%s: at %v ps: hooks = %q, want %q", src, eng.Now(), got, step.hooks)
			}
			if got := len(tgt.starved) > 0 && tgt.starved[len(tgt.starved)-1]; got != step.starved {
				t.Errorf("%s: at %v ps: starved = %v, want %v", src, eng.Now(), got, step.starved)
			}
			gate := inj.GateFor(0)
			for c := uint64(0); c < 6; c++ {
				if got, want := gate(c), c%step.every == 0; got != want {
					t.Errorf("%s: at %v ps: core 0's gate(%d) = %v, want %v", src, eng.Now(), c, got, want)
				}
			}
		}
	}
}
