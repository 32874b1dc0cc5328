package main

import "testing"

// series returns n values around base, spread ±jitter in a fixed pattern.
func series(n int, base, jitter float64) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = base * (1 + jitter*float64(i%5-2)/2)
	}
	return out
}

func shift(vs []float64, d float64) []float64 {
	out := make([]float64, len(vs))
	for i, v := range vs {
		out[i] = v + d
	}
	return out
}

func TestJudge(t *testing.T) {
	cases := []struct {
		name           string
		parent, change []float64
		better         string
		bound          float64
		moreFailures   bool
		want           string
		wantWins       int
	}{
		{
			name:   "clear gain on a higher-is-better metric",
			parent: series(10, 100, 0.01), change: series(10, 110, 0.01),
			better: "higher", bound: 0.1, want: verdictGain, wantWins: 10,
		},
		{
			name:   "clear gain on a lower-is-better metric",
			parent: series(10, 1.0, 0.01), change: series(10, 0.9, 0.01),
			better: "lower", bound: 0.1, want: verdictGain, wantWins: 10,
		},
		{
			name:   "a gain with more failed ops does not count",
			parent: series(10, 100, 0.01), change: series(10, 110, 0.01),
			better: "higher", bound: 0.1, moreFailures: true, want: verdictGainVoided, wantWins: 10,
		},
		{
			name:   "8 wins of 10 is not a gain",
			parent: series(10, 100, 0.01),
			change: append(series(8, 103, 0.001), 90, 90),
			better: "higher", bound: 0.1, want: verdictWithinBound, wantWins: 8,
		},
		{
			name:   "all wins but a gap inside the parent's IQR is not a gain",
			parent: series(10, 100, 0.04), change: shift(series(10, 100, 0.04), 0.1),
			better: "higher", bound: 0.1, want: verdictWithinBound, wantWins: 10,
		},
		{
			name:   "worse by more than the bound is a regression",
			parent: series(10, 100, 0.01), change: series(10, 85, 0.01),
			better: "higher", bound: 0.1, want: verdictRegression, wantWins: 0,
		},
		{
			name:   "worse within the bound is not",
			parent: series(10, 100, 0.01), change: series(10, 95, 0.01),
			better: "higher", bound: 0.1, want: verdictWithinBound, wantWins: 0,
		},
		{
			name:   "spread wider than the bound is unresolved",
			parent: series(10, 100, 0.3), change: series(10, 97, 0.3),
			better: "higher", bound: 0.1, want: verdictUnresolved, wantWins: 0,
		},
		{
			name:   "wide spread but every change run better than every parent run",
			parent: []float64{50, 60, 70, 80, 90, 50, 60, 70, 80, 90}, change: []float64{91, 99, 105, 120, 130, 91, 99, 105, 120, 130},
			better: "higher", bound: 0.1, want: verdictGain, wantWins: 10,
		},
		{
			name:   "wide spread, every change run better but the gap inside the parent's IQR",
			parent: []float64{50, 60, 70, 80, 90, 50, 60, 70, 80, 90}, change: []float64{91, 92, 93, 94, 95, 91, 92, 93, 94, 95},
			better: "higher", bound: 0.1, want: verdictWithinBound, wantWins: 10,
		},
		{
			name:   "wide spread, every change run worse by more than the bound",
			parent: []float64{50, 60, 70, 80, 90, 50, 60, 70, 80, 90}, change: []float64{91, 92, 93, 94, 95, 91, 92, 93, 94, 95},
			better: "lower", bound: 0.1, want: verdictRegression, wantWins: 0,
		},
		{
			name:   "fewer than ten pairs",
			parent: series(5, 100, 0.01), change: series(5, 100, 0.01),
			better: "higher", bound: 0.1, want: verdictTooFewPairs, wantWins: 0,
		},
		{
			name:   "unpaired values",
			parent: series(10, 100, 0.01), change: series(9, 100, 0.01),
			better: "higher", bound: 0.1, want: verdictNotMeasured, wantWins: 0,
		},
	}
	for _, c := range cases {
		got, wins := judge(c.parent, c.change, c.better, c.bound, c.moreFailures)
		if got != c.want || wins != c.wantWins {
			t.Errorf("%s: got %s with %d wins, want %s with %d", c.name, got, wins, c.want, c.wantWins)
		}
	}
}

func TestComparePairsMatchesByFileName(t *testing.T) {
	bf := benchmarkFile{EndToEnd: []declaredMetric{{Name: "sim_ns_per_wall_ms", Unit: "sim-ns/wall-ms", Better: "higher", Bound: 0.1}}}
	mk := func(workload string, v float64, failed int) *result {
		return &result{Workload: workload, Failed: failed, Metrics: map[string]summary{"sim_ns_per_wall_ms": {Value: v}}}
	}
	parent, change := map[string]*result{}, map[string]*result{}
	for i, v := range series(10, 100, 0.01) {
		name := "line-rmw166-" + string(rune('a'+i)) + ".json"
		parent[name] = mk("line-rmw166", v, 0)
		change[name] = mk("line-rmw166", v*1.2, 0)
	}
	parent["unpaired.json"] = mk("line-rmw166", 1, 0)
	got := comparePairs(bf, parent, change)
	if len(got) != 1 {
		t.Fatalf("%d verdicts, want 1", len(got))
	}
	if v := got[0]; v.Verdict != verdictGain || v.Pairs != 10 || v.Wins != 10 {
		t.Errorf("got %+v, want a gain over 10 pairs", v)
	}
	change["line-rmw166-a.json"].Failed = 1
	if v := comparePairs(bf, parent, change)[0]; v.Verdict != verdictGainVoided {
		t.Errorf("with a failed change op: %s, want %s", v.Verdict, verdictGainVoided)
	}
}
