package core

import "encoding/json"

// JSON returns the canonical machine-readable encoding of a report. The
// encoding is deterministic: the same configuration and seed produce
// byte-identical output across runs and across GOMAXPROCS settings, which is
// what makes sweep results content-addressable and diffable (see
// internal/sweep).
func (r Report) JSON() ([]byte, error) {
	return json.Marshal(r)
}
