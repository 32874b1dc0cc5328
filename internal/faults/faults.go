// Package faults defines seeded, schedule-deterministic fault plans for the
// NIC simulator: a pure-data specification of adverse events — corrupted or
// dropped arriving frames, lost and duplicated DMA completions, transient
// scratchpad bank errors, stuck or slowed cores, host descriptor-ring
// starvation, and lost mailbox writes — injected at declared simulated-time
// points.
//
// A Plan is JSON-serializable and hashes stably as part of a sweep.Spec, so
// fault scenarios are sweepable axes exactly like core counts or clock
// frequencies. Given the same (machine spec, plan, seed), every injected
// fault lands on the same frame, the same completion, the same cycle — runs
// are byte-for-byte reproducible.
package faults

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"

	"repro/internal/sim"
)

// Kind names one fault class. Switches over Kind are checked by niclint's
// exhaustive analyzer: adding a constant here forces every classifying switch
// to decide how the new kind behaves.
//
//nic:exhaustive
type Kind string

// Fault classes. The fw_* kinds deliberately sabotage firmware state (leak a
// frame, swap two ring entries); they exist to prove the invariant checker
// detects real pipeline corruption and are not recovered from.
const (
	RxCorrupt   Kind = "rx_corrupt"   // arriving frame fails CRC at the MAC
	RxDrop      Kind = "rx_drop"      // arriving frame lost on the wire
	DMALoss     Kind = "dma_loss"     // DMA completion notification dropped
	DMADup      Kind = "dma_dup"      // DMA completion notification duplicated
	BankError   Kind = "bank_error"   // scratchpad bank unavailable for a window
	CoreStuck   Kind = "core_stuck"   // core stops executing for a window
	CoreSlow    Kind = "core_slow"    // core runs at 1/Factor speed for a window
	RingStarve  Kind = "ring_starve"  // host driver stops posting descriptors
	MailboxLoss Kind = "mailbox_loss" // next Count mailbox doorbell writes lost
	FWLeak      Kind = "fw_leak"      // sabotage: leak one frame from a firmware queue
	FWSwap      Kind = "fw_swap"      // sabotage: swap two adjacent ring entries
)

// kinds lists every valid Kind for validation and parsing.
var kinds = map[Kind]bool{
	RxCorrupt: true, RxDrop: true, DMALoss: true, DMADup: true,
	BankError: true, CoreStuck: true, CoreSlow: true,
	RingStarve: true, MailboxLoss: true, FWLeak: true, FWSwap: true,
}

// windowed reports whether the kind uses a duration window.
func windowed(k Kind) bool {
	switch k {
	case BankError, CoreStuck, CoreSlow, RingStarve:
		return true
	case RxCorrupt, RxDrop, DMALoss, DMADup, MailboxLoss, FWLeak, FWSwap:
		return false
	}
	return false
}

// counted reports whether the kind arms a number of discrete injections.
func counted(k Kind) bool {
	switch k {
	case RxCorrupt, RxDrop, DMALoss, DMADup, MailboxLoss:
		return true
	case BankError, CoreStuck, CoreSlow, RingStarve, FWLeak, FWSwap:
		return false
	}
	return false
}

// Event is one scheduled fault.
//
//nic:hashstable 36054d9f25ef
type Event struct {
	Kind Kind `json:"kind"`
	// At is the injection instant in simulated picoseconds.
	At sim.Picoseconds `json:"at_ps"`
	// Dur is the window length for windowed kinds (bank_error, core_stuck,
	// core_slow, ring_starve). Zero on core_stuck means stuck until takeover
	// only (the core never resumes on its own).
	Dur sim.Picoseconds `json:"dur_ps,omitempty"`
	// Target selects the bank (bank_error) or core (core_stuck, core_slow),
	// or the direction for fw_* sabotage (0 = send, 1 = receive).
	Target int `json:"target,omitempty"`
	// Count arms that many discrete injections for counted kinds
	// (rx_corrupt, rx_drop, dma_loss, dma_dup, mailbox_loss); zero means 1.
	Count int `json:"count,omitempty"`
	// Factor is the slowdown divisor for core_slow (the core executes one in
	// Factor cycles); zero means 2.
	Factor int `json:"factor,omitempty"`
}

// Plan is a complete fault scenario: a seed for the injector's spacing PRNG
// plus the scheduled events. The zero Plan is the empty (fault-free) plan.
//
//nic:hashstable e3b0c44298fc
type Plan struct {
	Seed   int64   `json:"seed,omitempty"`
	Events []Event `json:"events,omitempty"`
}

// Empty reports whether the plan injects nothing.
func (p Plan) Empty() bool { return len(p.Events) == 0 }

// Has reports whether the plan contains at least one event of the kind.
func (p Plan) Has(k Kind) bool {
	for _, e := range p.Events {
		if e.Kind == k {
			return true
		}
	}
	return false
}

// Validate checks the plan against a machine with the given core and bank
// counts (pass -1 to skip the bounds checks).
func (p Plan) Validate(cores, banks int) error {
	for i, e := range p.Events {
		if !kinds[e.Kind] {
			return fmt.Errorf("faults: event %d: unknown kind %q", i, e.Kind)
		}
		if e.Count < 0 {
			return fmt.Errorf("faults: event %d (%s): negative count %d", i, e.Kind, e.Count)
		}
		if e.Factor < 0 || (e.Kind == CoreSlow && e.Factor == 1) {
			return fmt.Errorf("faults: event %d (%s): bad factor %d", i, e.Kind, e.Factor)
		}
		if e.Target < 0 {
			return fmt.Errorf("faults: event %d (%s): negative target %d", i, e.Kind, e.Target)
		}
		switch e.Kind {
		case CoreStuck, CoreSlow:
			if cores >= 0 && e.Target >= cores {
				return fmt.Errorf("faults: event %d (%s): core %d out of range (%d cores)", i, e.Kind, e.Target, cores)
			}
			if e.Kind == CoreSlow && e.Dur == 0 {
				return fmt.Errorf("faults: event %d (%s): zero-length window", i, e.Kind)
			}
		case BankError:
			if banks >= 0 && e.Target >= banks {
				return fmt.Errorf("faults: event %d (%s): bank %d out of range (%d banks)", i, e.Kind, e.Target, banks)
			}
			if e.Dur == 0 {
				return fmt.Errorf("faults: event %d (%s): zero-length window", i, e.Kind)
			}
		case RingStarve:
			if e.Dur == 0 {
				return fmt.Errorf("faults: event %d (%s): zero-length window", i, e.Kind)
			}
		case FWLeak, FWSwap:
			if e.Target > 1 {
				return fmt.Errorf("faults: event %d (%s): target must be 0 (send) or 1 (recv)", i, e.Kind)
			}
		case RxCorrupt, RxDrop, DMALoss, DMADup, MailboxLoss:
			// Counted kinds: only the generic count/target checks above apply.
		}
		if !windowed(e.Kind) && e.Dur != 0 {
			return fmt.Errorf("faults: event %d (%s): duration on a non-windowed kind", i, e.Kind)
		}
	}
	return p.checkOverlaps()
}

// checkOverlaps rejects two windows of one kind on one target (a bank, a
// core, or the host ring) whose [At, At+Dur) intervals intersect: the
// injector keeps one window state per target, so the first window to close
// would end both. Windows that only touch are fine.
func (p Plan) checkOverlaps() error {
	for i, a := range p.Events {
		for j, b := range p.Events[i+1:] {
			if !windowed(a.Kind) || b.Kind != a.Kind || (a.Kind != RingStarve && b.Target != a.Target) ||
				a.At >= windowEnd(b) || b.At >= windowEnd(a) {
				continue
			}
			end := windowEnd(a)
			if b.At < a.At {
				end = windowEnd(b)
			}
			fix := "start the later one at or after " + fmtDur(end)
			if end == math.MaxUint64 {
				fix = "give the earlier one a duration"
			}
			return fmt.Errorf("faults: events %d and %d (%s, target %d): windows overlap; merge them into one window or %s",
				i, i+1+j, a.Kind, a.Target, fix)
		}
	}
	return nil
}

// windowEnd is the end of e's window; a core_stuck without a duration is
// open to the end of the run.
func windowEnd(e Event) sim.Picoseconds {
	if e.Kind == CoreStuck && e.Dur == 0 || e.Dur > math.MaxUint64-e.At {
		return math.MaxUint64
	}
	return e.At + e.Dur
}

// String renders the plan in the compact syntax ParsePlan accepts.
func (p Plan) String() string {
	var b strings.Builder
	if p.Seed != 0 {
		fmt.Fprintf(&b, "seed=%d;", p.Seed)
	}
	for i, e := range p.Events {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%s@%s", e.Kind, fmtDur(e.At))
		if e.Dur != 0 {
			fmt.Fprintf(&b, "+%s", fmtDur(e.Dur))
		}
		if e.Count != 0 {
			fmt.Fprintf(&b, "*%d", e.Count)
		}
		if e.Target != 0 {
			fmt.Fprintf(&b, ":%d", e.Target)
		}
		if e.Factor != 0 {
			fmt.Fprintf(&b, "x%d", e.Factor)
		}
	}
	return b.String()
}

func fmtDur(p sim.Picoseconds) string {
	switch {
	case p%sim.Millisecond == 0 && p != 0:
		return fmt.Sprintf("%dms", p/sim.Millisecond)
	case p%sim.Microsecond == 0 && p != 0:
		return fmt.Sprintf("%dus", p/sim.Microsecond)
	case p%sim.Nanosecond == 0 && p != 0:
		return fmt.Sprintf("%dns", p/sim.Nanosecond)
	}
	return fmt.Sprintf("%dps", uint64(p))
}

// ParsePlan parses the compact plan syntax:
//
//	plan  := [ "seed=" int ";" ] event { "," event }
//	event := kind "@" time [ "+" dur ] [ "*" count ] [ ":" target ] [ "x" factor ]
//	time  := number ( "ps" | "ns" | "us" | "ms" )
//
// e.g. "seed=7;rx_corrupt@310us*4,core_stuck@360us+20us:1,bank_error@340us+10us:2".
// A string starting with "@" names a JSON plan file instead.
func ParsePlan(s string) (Plan, error) {
	s = strings.TrimSpace(s)
	if s == "" {
		return Plan{}, nil
	}
	if strings.HasPrefix(s, "@") {
		b, err := os.ReadFile(s[1:])
		if err != nil {
			return Plan{}, fmt.Errorf("faults: %w", err)
		}
		var p Plan
		if err := json.Unmarshal(b, &p); err != nil {
			return Plan{}, fmt.Errorf("faults: decode %s: %w", s[1:], err)
		}
		return p, nil
	}
	var p Plan
	if rest, ok := strings.CutPrefix(s, "seed="); ok {
		i := strings.IndexByte(rest, ';')
		if i < 0 {
			return Plan{}, fmt.Errorf("faults: %q: seed= must be followed by ';' and events", s)
		}
		seed, err := strconv.ParseInt(rest[:i], 10, 64)
		if err != nil {
			return Plan{}, fmt.Errorf("faults: bad seed %q", rest[:i])
		}
		p.Seed = seed
		s = rest[i+1:]
	}
	for _, tok := range strings.Split(s, ",") {
		tok = strings.TrimSpace(tok)
		if tok == "" {
			continue
		}
		ev, err := parseEvent(tok)
		if err != nil {
			return Plan{}, err
		}
		p.Events = append(p.Events, ev)
	}
	return p, nil
}

func parseEvent(tok string) (Event, error) {
	kindStr, rest, ok := strings.Cut(tok, "@")
	if !ok {
		return Event{}, fmt.Errorf("faults: event %q: missing '@time'", tok)
	}
	ev := Event{Kind: Kind(kindStr)}
	if !kinds[ev.Kind] {
		return Event{}, fmt.Errorf("faults: event %q: unknown kind %q", tok, kindStr)
	}
	// Split the trailing modifiers off right-to-left so duration units ("us")
	// never collide with the 'x' factor or ':' target markers.
	if at, fac, ok := cutLast(rest, 'x'); ok {
		n, err := strconv.Atoi(fac)
		if err != nil {
			return Event{}, fmt.Errorf("faults: event %q: bad factor %q", tok, fac)
		}
		ev.Factor = n
		rest = at
	}
	if at, tgt, ok := cutLast(rest, ':'); ok {
		n, err := strconv.Atoi(tgt)
		if err != nil {
			return Event{}, fmt.Errorf("faults: event %q: bad target %q", tok, tgt)
		}
		ev.Target = n
		rest = at
	}
	if at, cnt, ok := cutLast(rest, '*'); ok {
		n, err := strconv.Atoi(cnt)
		if err != nil {
			return Event{}, fmt.Errorf("faults: event %q: bad count %q", tok, cnt)
		}
		ev.Count = n
		rest = at
	}
	if at, dur, ok := strings.Cut(rest, "+"); ok {
		d, err := parseDur(dur)
		if err != nil {
			return Event{}, fmt.Errorf("faults: event %q: %w", tok, err)
		}
		ev.Dur = d
		rest = at
	}
	at, err := parseDur(rest)
	if err != nil {
		return Event{}, fmt.Errorf("faults: event %q: %w", tok, err)
	}
	ev.At = at
	return ev, nil
}

// cutLast splits s at the last occurrence of sep, requiring the suffix to be
// non-empty and all-numeric (so 'x' in a hypothetical future kind name or
// unit cannot be misparsed).
func cutLast(s string, sep byte) (before, after string, ok bool) {
	i := strings.LastIndexByte(s, sep)
	if i < 0 || i == len(s)-1 {
		return s, "", false
	}
	suffix := s[i+1:]
	for _, r := range suffix {
		if r < '0' || r > '9' {
			return s, "", false
		}
	}
	return s[:i], suffix, true
}

func parseDur(s string) (sim.Picoseconds, error) {
	s = strings.TrimSpace(s)
	unit := sim.Picoseconds(1)
	switch {
	case strings.HasSuffix(s, "ms"):
		unit, s = sim.Millisecond, s[:len(s)-2]
	case strings.HasSuffix(s, "us"):
		unit, s = sim.Microsecond, s[:len(s)-2]
	case strings.HasSuffix(s, "ns"):
		unit, s = sim.Nanosecond, s[:len(s)-2]
	case strings.HasSuffix(s, "ps"):
		s = s[:len(s)-2]
	}
	// Integer fast path: String always renders integer scalars, so taking it
	// exactly (no float rounding near 2^53) keeps parse→String→parse lossless.
	if v, err := strconv.ParseUint(s, 10, 64); err == nil {
		if unit > 1 && v > uint64(1<<64-1)/uint64(unit) {
			return 0, fmt.Errorf("time %q overflows", s)
		}
		return sim.Picoseconds(v) * unit, nil
	}
	v, err := strconv.ParseFloat(s, 64)
	if err != nil || v < 0 || math.IsNaN(v) || math.IsInf(v, 0) {
		return 0, fmt.Errorf("bad time %q", s)
	}
	ps := v*float64(unit) + 0.5
	if ps >= float64(1<<63)*2 { // 2^64: conversion to uint64 would wrap
		return 0, fmt.Errorf("time %q overflows", s)
	}
	return sim.Picoseconds(ps), nil
}

// Reference builds the documented reference plan: at least one event of every
// recoverable fault class, spread over ~190 µs starting at the given instant
// (typically the end of warmup, so every fault lands inside the measurement
// window). The windows are sized so a healthy six-core controller recovers
// every fault while sustaining well over 90% of its fault-free throughput.
func Reference(start sim.Picoseconds) Plan {
	at := func(us uint64) sim.Picoseconds { return start + sim.Picoseconds(us)*sim.Microsecond }
	us := func(n uint64) sim.Picoseconds { return sim.Picoseconds(n) * sim.Microsecond }
	p := Plan{
		Seed: 1,
		Events: []Event{
			{Kind: RxCorrupt, At: at(10), Count: 4},
			{Kind: RxDrop, At: at(25), Count: 4},
			{Kind: DMALoss, At: at(40), Count: 2},
			{Kind: DMADup, At: at(60), Count: 2},
			{Kind: BankError, At: at(80), Dur: us(10), Target: 1},
			{Kind: CoreSlow, At: at(100), Dur: us(20), Target: 2, Factor: 4},
			{Kind: CoreStuck, At: at(130), Dur: us(20), Target: 1},
			{Kind: RingStarve, At: at(160), Dur: us(10)},
			{Kind: MailboxLoss, At: at(180), Count: 3},
		},
	}
	sort.SliceStable(p.Events, func(i, j int) bool { return p.Events[i].At < p.Events[j].At })
	return p
}
