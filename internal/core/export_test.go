package core

// EveryEdge runs f with every NIC that New builds ticking each ticker on
// every edge of its domain (see everyEdge). Tests that call it must not run
// in parallel with other tests that build NICs.
func EveryEdge(f func()) {
	everyEdge = true
	defer func() { everyEdge = false }()
	f()
}
