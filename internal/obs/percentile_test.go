package obs

import (
	"math"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/sim"
)

// refQuantile is an independent brute-force nearest-rank implementation: the
// smallest sample with at least q·n samples at or below it.
func refQuantile(sorted []sim.Picoseconds, q float64) sim.Picoseconds {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	idx := int(math.Ceil(q*float64(n))) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= n {
		idx = n - 1
	}
	return sorted[idx]
}

// TestPercentilesUnderBurstyArrivals drives frames through the recorder with
// bursty on/off arrivals — many origins stamped at the same burst instant,
// drained one by one so queueing delay dominates and the latency distribution
// is heavy-tailed — then checks the reported percentiles exactly against a
// brute-force nearest-rank reference over the true per-frame latencies.
func TestPercentilesUnderBurstyArrivals(t *testing.T) {
	clk := &fakeClock{at: sim.Microsecond} // avoid t=0, reserved as "unset"
	r := NewRecorder(Config{Events: 64}, clk.now, 64, 64)
	rng := rand.New(rand.NewSource(42))

	var (
		truth []sim.Picoseconds
		seq   uint64
	)
	for burst := 0; burst < 40; burst++ {
		n := 1 + rng.Intn(50) // burst size
		// All frames of the burst arrive at the same instant.
		origin := clk.at
		for i := 0; i < n; i++ {
			r.FrameOrigin(Recv)
		}
		// Drain the burst one frame at a time; later frames of a burst wait
		// longer, which is what makes the tail heavy.
		for i := 0; i < n; i++ {
			for s := RecvBuffered; s < NumRecvStages; s++ {
				clk.at += sim.Picoseconds(1+rng.Intn(2000)) * sim.Nanosecond
				r.FrameStage(Recv, s, seq, 0)
			}
			truth = append(truth, clk.at-origin)
			seq++
		}
		// Off period before the next burst.
		clk.at += sim.Picoseconds(1+rng.Intn(5000)) * sim.Nanosecond
	}

	rep := r.LatencyReport()
	if rep == nil {
		t.Fatal("nil latency report")
	}
	d := rep.Recv
	if d.Frames != uint64(len(truth)) {
		t.Fatalf("Frames = %d, want %d", d.Frames, len(truth))
	}

	sorted := append([]sim.Picoseconds(nil), truth...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	cases := []struct {
		name string
		got  float64
		want sim.Picoseconds
	}{
		{"p50", d.P50Us, refQuantile(sorted, 0.50)},
		{"p90", d.P90Us, refQuantile(sorted, 0.90)},
		{"p99", d.P99Us, refQuantile(sorted, 0.99)},
		{"max", d.MaxUs, sorted[len(sorted)-1]},
	}
	for _, c := range cases {
		if want := float64(c.want) / 1e6; c.got != want {
			t.Errorf("Recv %s = %v µs, want %v µs (exact)", c.name, c.got, want)
		}
	}

	// The reference must be a strict nearest-rank: p99 of the sample set is an
	// actual observed latency, not an interpolation.
	found := false
	for _, v := range truth {
		if float64(v)/1e6 == d.P99Us {
			found = true
			break
		}
	}
	if !found {
		t.Error("reported p99 is not one of the observed latencies")
	}
}

// TestQuantileAgainstReference fuzzes the histogram directly against the
// brute-force reference across sizes and q values, including duplicates and
// the q<=0 / q>=1 edges.
func TestQuantileAgainstReference(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, n := range []int{1, 2, 3, 10, 101, 1000} {
		var h Histogram
		samples := make([]sim.Picoseconds, 0, n)
		for i := 0; i < n; i++ {
			v := sim.Picoseconds(rng.Intn(50)) * sim.Nanosecond // force duplicates
			h.Add(v)
			samples = append(samples, v)
		}
		sort.Slice(samples, func(i, j int) bool { return samples[i] < samples[j] })
		for _, q := range []float64{-0.5, 0, 0.01, 0.25, 0.5, 0.9, 0.99, 0.999, 1, 1.5} {
			if got, want := h.Quantile(q), refQuantile(samples, q); got != want {
				t.Fatalf("n=%d q=%v: Quantile = %d, reference = %d", n, q, got, want)
			}
		}
	}
}
