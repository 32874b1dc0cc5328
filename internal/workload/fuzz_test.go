package workload

import "testing"

// FuzzParseTraffic asserts that ParseTraffic never panics and that every
// spec it accepts passes Validate.
func FuzzParseTraffic(f *testing.F) {
	for _, s := range []string{
		"", "badcrc", "mcast,burst", "mixed,pareto,seed=7", "uniform,flows=64",
		"uniform,saturate", "jumbo,sync,seed=-3,flows=1", ",uniform", "seed=1,uniform",
		"priority,burst,pareto", "uniform,flows=0",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		spec, err := ParseTraffic(s)
		if err != nil {
			return
		}
		if err := spec.Validate(); err != nil {
			t.Fatalf("ParseTraffic(%q) = %+v, which Validate rejects: %v", s, spec, err)
		}
	})
}
