package core

import (
	"encoding/json"
	"testing"
)

// FuzzParseSLO asserts that ParseSLO never panics and that every SLO it
// accepts passes Validate and JSON-encodes, since accepted SLOs go into
// sweep spec hashes and reports.
func FuzzParseSLO(f *testing.F) {
	for _, s := range []string{
		"", "recv=400", "recv_p99_us=400,send_p99_us=1300", "send=10, drops=0.05",
		"max_drop_frac=0.5,recv=1,send=2", "drops=NaN", "send=+Inf", "recv=1e309",
		"recv=0x1p-2,,", "drops=1,drops=0",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		slo, err := ParseSLO(s)
		if err != nil {
			return
		}
		if err := slo.Validate(); err != nil {
			t.Fatalf("ParseSLO(%q) = %+v, which Validate rejects: %v", s, slo, err)
		}
		if _, err := json.Marshal(slo); err != nil {
			t.Fatalf("ParseSLO(%q) = %+v, which does not encode: %v", s, slo, err)
		}
	})
}
