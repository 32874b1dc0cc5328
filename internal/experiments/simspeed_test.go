package experiments

import (
	"strings"
	"testing"
)

func TestCompareSimSpeedGatesAllocatedBytes(t *testing.T) {
	base := SimSpeedFile{
		Schema:    SimSpeedSchema,
		Tolerance: 0.25,
		Points: []SimSpeedPoint{
			{Name: "a", SimNsPerWallMs: 8000, AllocBytesPerSimUs: 5000, AllocsPerStep: 0.04},
		},
	}
	cases := []struct {
		name  string
		fresh SimSpeedPoint
		want  string // substring of the single expected finding, or "" for none
	}{
		{"unchanged", SimSpeedPoint{Name: "a", SimNsPerWallMs: 8000, AllocBytesPerSimUs: 5000}, ""},
		{"within tolerance", SimSpeedPoint{Name: "a", SimNsPerWallMs: 6500, AllocBytesPerSimUs: 6200}, ""},
		// A 3x allocation regression at a near-zero allocs/step rate must
		// fail: an absolute allocs/step floor would have waved it through.
		{"3x bytes", SimSpeedPoint{Name: "a", SimNsPerWallMs: 8000, AllocBytesPerSimUs: 15000, AllocsPerStep: 0.12}, "B/sim-us"},
		{"slower", SimSpeedPoint{Name: "a", SimNsPerWallMs: 5000, AllocBytesPerSimUs: 5000}, "sim-ns/wall-ms"},
	}
	for _, c := range cases {
		bad := CompareSimSpeed(base, []SimSpeedPoint{c.fresh})
		switch {
		case c.want == "" && len(bad) != 0:
			t.Errorf("%s: unexpected findings %q", c.name, bad)
		case c.want != "" && (len(bad) != 1 || !strings.Contains(bad[0], c.want)):
			t.Errorf("%s: findings %q, want one mentioning %q", c.name, bad, c.want)
		}
	}
}

func TestCompareSimSpeedReportsMissingPoints(t *testing.T) {
	base := SimSpeedFile{Tolerance: 0.25, Points: []SimSpeedPoint{{Name: "a"}, {Name: "b"}}}
	bad := CompareSimSpeed(base, []SimSpeedPoint{{Name: "a"}, {Name: "c"}})
	if len(bad) != 2 || !strings.Contains(bad[0], "c: no baseline point") || !strings.Contains(bad[1], "b: baseline point not measured") {
		t.Errorf("findings %q", bad)
	}
}

// TestCompareSimSpeedAllocFloor checks the absolute slack on a near-zero
// allocation baseline: noise of a few tens of bytes per simulated µs
// passes, a regression to per-frame allocation does not.
func TestCompareSimSpeedAllocFloor(t *testing.T) {
	base := SimSpeedFile{Tolerance: 0.25, Points: []SimSpeedPoint{{Name: "a", SimNsPerWallMs: 8000, AllocBytesPerSimUs: 16}}}
	for _, c := range []struct {
		fresh float64
		fails bool
	}{{16, false}, {16 + AllocSlackBytesPerSimUs, false}, {17 + AllocSlackBytesPerSimUs, true}, {1300, true}} {
		bad := CompareSimSpeed(base, []SimSpeedPoint{{Name: "a", SimNsPerWallMs: 8000, AllocBytesPerSimUs: c.fresh}})
		if got := len(bad) > 0; got != c.fails {
			t.Errorf("%.0f B/sim-us on a 16 B/sim-us baseline: findings %q, want failure %v", c.fresh, bad, c.fails)
		}
	}
}
