// Package stats provides the counters and utilization trackers used to
// report the measured quantities in the paper's tables: instructions per
// cycle breakdowns, memory-port utilization, and link throughput.
package stats

// A Counter is a monotonically increasing event count.
type Counter struct {
	n uint64
}

// Add increments the counter by delta.
func (c *Counter) Add(delta uint64) { c.n += delta }

// Inc increments the counter by one.
func (c *Counter) Inc() { c.n++ }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.n }

// A Utilization tracks busy cycles against total cycles for a shared resource
// such as the instruction-memory port or the SDRAM bus.
type Utilization struct {
	Busy  Counter
	Total Counter
}

// Ratio returns busy/total, or zero when no cycles have elapsed.
func (u *Utilization) Ratio() float64 {
	if u.Total.Value() == 0 {
		return 0
	}
	return float64(u.Busy.Value()) / float64(u.Total.Value())
}
