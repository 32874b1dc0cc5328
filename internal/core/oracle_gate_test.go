package core_test

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"testing"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/sweep"
)

// TestGateMatchesEveryEdge runs the default nicbench -quick -check job set
// (the gate, robustness and rss suites) on the every-edge reference engine
// and requires the baselines it yields to equal baselines/gate.json byte for
// byte: the committed gate, recorded on the sleeping engine, is what the
// reference computes too.
func TestGateMatchesEveryEdge(t *testing.T) {
	if testing.Short() {
		t.Skip("simulates the 35 gate jobs on the every-edge engine")
	}
	want, err := os.ReadFile("../../baselines/gate.json")
	if err != nil {
		t.Fatal(err)
	}
	gated := map[string]bool{"gate": true, "robustness": true, "rss": true}
	r := &sweep.Runner{Run: experiments.Simulate, Workers: 2}
	var results []sweep.Result
	core.EveryEdge(func() {
		for _, s := range experiments.Suites() {
			if !gated[s.Key] {
				continue
			}
			res, err := r.Sweep(context.Background(), s.Jobs(experiments.Quick))
			if err != nil {
				t.Fatal(err)
			}
			results = append(results, res...)
		}
	})
	for _, res := range results {
		if !res.OK() {
			t.Errorf("job %s failed: %s", res.ID, res.Err)
		}
	}
	bf, err := sweep.LoadBaselines("../../baselines/gate.json")
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range sweep.Compare(results, bf) {
		t.Errorf("REGRESSION: %s", v)
	}
	got, err := json.MarshalIndent(sweep.NewBaselines(results), "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(append(got, '\n'), want) {
		t.Error("baselines from the every-edge engine differ from baselines/gate.json")
	}
}
