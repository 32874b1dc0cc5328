package core

import (
	"fmt"
	"math"
	"strconv"
	"strings"
)

// SLO is a declarative service-level objective evaluated against a run's
// report, like the built-in invariants but with thresholds the caller
// commits to: tail-latency bounds per direction and a resource-drop budget.
// Zero-valued bounds are unbounded. Evaluation always includes the survival
// checks (ordering, invariants, forward progress), so an SLO-armed run
// asserts "the controller survives this traffic, within these bounds" —
// including under an attached fault plan.
//
// SLO is pure data: it embeds into sweep.Spec (content-hashed) and its
// result lands in Report.SLO, so SLO regressions gate exactly like
// throughput regressions.
//
//nic:hashstable e3b0c44298fc
type SLO struct {
	// RecvP99Us bounds the receive-path p99 frame latency in microseconds.
	RecvP99Us float64 `json:"recv_p99_us,omitempty"`
	// SendP99Us bounds the send-path p99 frame latency in microseconds.
	SendP99Us float64 `json:"send_p99_us,omitempty"`
	// MaxDropFrac bounds resource (buffer-exhaustion) drops as a fraction of
	// frames reaching the MAC's staging logic. Malformed-frame rejects are
	// expected behaviour and never count against it.
	MaxDropFrac float64 `json:"max_drop_frac,omitempty"`
}

// NeedsLatency reports whether evaluating the SLO requires frame-lifecycle
// observation (a latency bound is set).
func (s SLO) NeedsLatency() bool { return s.RecvP99Us > 0 || s.SendP99Us > 0 }

// Validate reports the first specification error, if any.
func (s SLO) Validate() error {
	for _, v := range []float64{s.RecvP99Us, s.SendP99Us, s.MaxDropFrac} {
		// NaN and ±Inf pass the range checks below but cannot be
		// JSON-encoded into a spec hash or a report.
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("core: non-finite SLO value %g", v)
		}
	}
	if s.RecvP99Us < 0 || s.SendP99Us < 0 {
		return fmt.Errorf("core: negative SLO latency bound")
	}
	if s.MaxDropFrac < 0 || s.MaxDropFrac > 1 {
		return fmt.Errorf("core: SLO drop fraction %g outside [0,1]", s.MaxDropFrac)
	}
	return nil
}

// ParseSLO parses the compact CLI syntax "key=value,...", with keys
// recv_p99_us, send_p99_us, max_drop_frac (short forms: recv, send, drops).
// An empty string is the zero SLO (survival checks only).
func ParseSLO(s string) (SLO, error) {
	var out SLO
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		k, v, ok := strings.Cut(part, "=")
		if !ok {
			return SLO{}, fmt.Errorf("core: bad SLO field %q (want key=value)", part)
		}
		f, err := strconv.ParseFloat(v, 64)
		if err != nil {
			return SLO{}, fmt.Errorf("core: bad SLO value %q: %v", part, err)
		}
		switch k {
		case "recv_p99_us", "recv":
			out.RecvP99Us = f
		case "send_p99_us", "send":
			out.SendP99Us = f
		case "max_drop_frac", "drops":
			out.MaxDropFrac = f
		default:
			return SLO{}, fmt.Errorf("core: unknown SLO key %q (have recv_p99_us, send_p99_us, max_drop_frac)", k)
		}
	}
	if err := out.Validate(); err != nil {
		return SLO{}, err
	}
	return out, nil
}

// SLOCheck is one evaluated assertion.
//
//nic:hashstable 7900f6023670
type SLOCheck struct {
	Name  string  `json:"name"`
	Bound float64 `json:"bound"`
	Got   float64 `json:"got"`
	Pass  bool    `json:"pass"`
}

// SLOReport is the SLO section of a report: the evaluated checks in a fixed
// order and the number that failed.
//
//nic:hashstable 6638779c8e3e
type SLOReport struct {
	Violations uint64     `json:"violations"`
	Checks     []SLOCheck `json:"checks"`
}

// TrafficReport is the adversarial-traffic section of a report: what the
// hostile source offered during the measurement window and what the MAC
// rejected, per class.
//
//nic:hashstable 7f9273c34887
type TrafficReport struct {
	Class   string `json:"class"`
	Arrival string `json:"arrival,omitempty"`
	Seed    int64  `json:"seed,omitempty"`

	Offered        uint64 `json:"offered"`
	HostileOffered uint64 `json:"hostile_offered"`

	RuntDrops     uint64 `json:"runt_drops"`
	OversizeDrops uint64 `json:"oversize_drops"`
	BadCRCDrops   uint64 `json:"bad_crc_drops"`
	FilteredDrops uint64 `json:"filtered_drops"`

	CritOffered   uint64 `json:"crit_offered"`
	CritDelivered uint64 `json:"crit_delivered"`
}

// HostileRejected is the total number of malformed or filtered frames the
// MAC rejected during the window.
func (t TrafficReport) HostileRejected() uint64 {
	return t.RuntDrops + t.OversizeDrops + t.BadCRCDrops + t.FilteredDrops
}

// evaluateSLO builds the SLO section from a finished report's measured
// quantities. Checks appear in a fixed order so reports are byte-stable.
func evaluateSLO(s SLO, r *Report, dropFrac float64) *SLOReport {
	out := &SLOReport{}
	add := func(name string, bound, got float64, pass bool) {
		if !pass {
			out.Violations++
		}
		out.Checks = append(out.Checks, SLOCheck{Name: name, Bound: bound, Got: got, Pass: pass})
	}
	if s.RecvP99Us > 0 {
		got := -1.0
		if r.Latency != nil {
			got = r.Latency.Recv.P99Us
		}
		add("recv_p99_us", s.RecvP99Us, got, got >= 0 && got <= s.RecvP99Us)
	}
	if s.SendP99Us > 0 {
		got := -1.0
		if r.Latency != nil {
			got = r.Latency.Send.P99Us
		}
		add("send_p99_us", s.SendP99Us, got, got >= 0 && got <= s.SendP99Us)
	}
	if s.MaxDropFrac > 0 {
		add("drop_frac", s.MaxDropFrac, dropFrac, dropFrac <= s.MaxDropFrac)
	}
	// Survival checks: always on, like the run invariants they lean on.
	ooo := float64(r.TxOutOfOrder + r.RxOutOfOrder)
	add("ordering", 0, ooo, ooo == 0)
	inv := float64(r.InvariantViolations)
	add("invariants", 0, inv, inv == 0)
	prog := r.TxFPS
	if r.RxFPS < prog {
		prog = r.RxFPS
	}
	add("progress", 0, prog, prog > 0)
	return out
}
