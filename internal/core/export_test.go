package core

import "repro/internal/host"

// EveryEdge runs f with every NIC that New builds ticking each ticker on
// every edge of its domain (see everyEdge). Tests that call it must not run
// in parallel with other tests that build NICs.
func EveryEdge(f func()) {
	everyEdge = true
	defer func() { everyEdge = false }()
	f()
}

// NewWithHost is New with the host model sized by h instead of
// host.DefaultConfig: small rings make the host's entry points matter.
func NewWithHost(cfg Config, h host.Config) *NIC { return build(cfg, h) }
