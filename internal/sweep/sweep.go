// Package sweep is the experiment-orchestration harness: it turns the
// paper's evaluation sweeps (the Figure 7 cores × MHz grid, the Figure 8
// datagram-size sweep, the design ablations) into sets of declarative jobs
// executed by a worker pool, with regression gating against committed
// golden baselines.
//
// The shape follows the evaluation stacks of multi-configuration
// packet-processing studies: every configuration point is an independent,
// deterministic simulation, so a sweep is embarrassingly parallel and its
// results are identified by a content hash of the configuration. A Job names
// one point; a Runner executes jobs across GOMAXPROCS-aware workers with
// cancellation and panic isolation, simulating each hash once per Runner;
// Compare gates fresh results against golden baselines within declared
// tolerances.
package sweep

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"

	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/workload"
)

// Spec kinds. KindNIC is a full-controller simulation yielding a
// core.Report; KindFig3 is the coherence study: a traced six-core run
// followed by the MESI cache-size sweep, yielding kind-specific Aux data.
const (
	KindNIC  = "nic"
	KindFig3 = "fig3"
)

// Spec declares one configuration point. It is pure data: everything needed
// to reconstruct the simulation is in the spec, so its content hash
// identifies the result.
//
//nic:hashstable 45f8fb93943e
type Spec struct {
	Kind string `json:"kind"`

	// Cfg is the controller build point, run exactly as given.
	Cfg core.Config `json:"cfg"`

	// UDPSize is the datagram payload of the workload.
	UDPSize int `json:"udp_size"`

	// Simulation budget, picoseconds of simulated time.
	WarmupPs  uint64 `json:"warmup_ps"`
	MeasurePs uint64 `json:"measure_ps"`

	// MaxRefs caps captured memory references (KindFig3 only).
	MaxRefs int `json:"max_refs,omitempty"`

	// Faults is an optional deterministic fault plan injected into the run.
	// Nil (the fault-free case) is omitted from the JSON encoding, so every
	// pre-existing spec hash is unchanged.
	Faults *faults.Plan `json:"faults,omitempty"`

	// Traffic is an optional adversarial traffic class and arrival process
	// replacing the baseline full-duplex uniform stream. SLO is an optional
	// latency/drop objective evaluated into the report. Both are nil on
	// baseline runs and omitted from the JSON encoding, so every pre-existing
	// spec hash is unchanged.
	Traffic *workload.TrafficSpec `json:"traffic,omitempty"`
	SLO     *core.SLO             `json:"slo,omitempty"`
}

// specSchema is folded into every hash so that incompatible changes to the
// meaning of a Spec change every hash, and with it every baseline key.
const specSchema = "sweep-spec-v1"

// Hash returns the stable content hash of the spec. Two jobs with equal
// hashes are the same simulation; the runner deduplicates them and serves
// either from the other's memoized result.
func (s Spec) Hash() string {
	b, err := json.Marshal(s)
	if err != nil {
		// Spec is a fixed struct of scalar fields; Marshal cannot fail.
		panic(fmt.Sprintf("sweep: hash spec: %v", err))
	}
	h := sha256.New()
	h.Write([]byte(specSchema))
	h.Write([]byte{0})
	h.Write(b)
	return hex.EncodeToString(h.Sum(nil))[:24]
}

// Job is one named configuration point of a sweep.
type Job struct {
	ID   string `json:"id"` // human-readable, e.g. "figure7/c6-f200"
	Spec Spec   `json:"spec"`
}

// Outcome is what a RunFunc produces for one job: a report for KindNIC
// jobs, and optional kind-specific auxiliary data (e.g. the Figure 3 cache
// sweep points) as raw JSON.
type Outcome struct {
	Report *core.Report
	Aux    json.RawMessage
}

// Result is one finished job: the outcome plus identity and provenance.
type Result struct {
	ID         string          `json:"id"`
	Hash       string          `json:"hash"`
	Spec       Spec            `json:"spec"`
	Report     *core.Report    `json:"report,omitempty"`
	Aux        json.RawMessage `json:"aux,omitempty"`
	Err        string          `json:"err,omitempty"`
	ElapsedSec float64         `json:"elapsed_sec"`

	// Cached is true when the result was served from the runner's memo
	// rather than simulated. Not serialized.
	Cached bool `json:"-"`
}

// OK reports whether the job completed successfully.
func (r Result) OK() bool { return r.Err == "" }

// Canonical returns a copy with provenance fields (elapsed wall time, cache
// flag) zeroed, so results from different executions of the same jobs —
// serial vs parallel, simulated vs memoized — compare byte-identical under
// json.Marshal.
func (r Result) Canonical() Result {
	r.ElapsedSec = 0
	r.Cached = false
	return r
}
