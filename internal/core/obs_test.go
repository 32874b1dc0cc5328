package core

import (
	"bytes"
	"encoding/json"
	"runtime"
	"testing"

	"repro/internal/faults"
	"repro/internal/obs"
	"repro/internal/sim"
)

// obsPoints are the paper's two operating points the latency section must
// cover: the RMW-enhanced 6-core 166 MHz build and the software-only 8-core
// 175 MHz build.
var obsPoints = []struct {
	name string
	cfg  func() Config
}{
	{"6x166-rmw", RMWConfig},
	{"8x175-sw", func() Config {
		c := DefaultConfig()
		c.Cores = 8
		c.CPUMHz = 175
		return c
	}},
}

const (
	obsWarmup  = 50 * sim.Microsecond
	obsMeasure = 100 * sim.Microsecond
)

func TestLatencyReportAtOperatingPoints(t *testing.T) {
	for _, pt := range obsPoints {
		t.Run(pt.name, func(t *testing.T) {
			n := New(pt.cfg())
			n.AttachWorkload(1472, false)
			n.EnableObs(obs.Config{})
			rep := n.Run(obsWarmup, obsMeasure)

			l := rep.Latency
			if l == nil {
				t.Fatal("Report.Latency = nil with observation enabled")
			}
			check := func(name string, d obs.DirLatency, stages int) {
				if d.Frames == 0 {
					t.Fatalf("%s: 0 frames measured", name)
				}
				if !(d.P50Us > 0 && d.P50Us <= d.P90Us && d.P90Us <= d.P99Us && d.P99Us <= d.MaxUs) {
					t.Errorf("%s: percentiles not monotone: p50 %v p90 %v p99 %v max %v",
						name, d.P50Us, d.P90Us, d.P99Us, d.MaxUs)
				}
				if len(d.Stages) != stages {
					t.Fatalf("%s: %d stage rows, want %d", name, len(d.Stages), stages)
				}
				for _, st := range d.Stages {
					if st.Frames == 0 {
						t.Errorf("%s: stage %s measured 0 frames", name, st.Name)
					}
					if st.MeanUs < 0 || st.MeanUs > st.MaxUs {
						t.Errorf("%s: stage %s mean %v outside [0, max %v]",
							name, st.Name, st.MeanUs, st.MaxUs)
					}
				}
			}
			check("send", l.Send, obs.NumSendStages-1)
			check("recv", l.Recv, obs.NumRecvStages-1)

			// The rendered report must include the latency section.
			if s := rep.String(); !bytes.Contains([]byte(s), []byte("send latency:")) {
				t.Error("Report.String() lacks the latency section")
			}
		})
	}
}

// TestObservationDoesNotPerturb runs the same configuration without the
// recorder, with latency observation and with a trace kept; every report
// field except Latency must be byte-identical to the unobserved run's, and
// the two observed reports must be byte-identical, Latency included.
func TestObservationDoesNotPerturb(t *testing.T) {
	run := func(cfg *obs.Config) Report {
		n := New(RMWConfig())
		n.AttachWorkload(1472, false)
		if cfg != nil {
			n.EnableObs(*cfg)
		}
		return n.Run(obsWarmup, obsMeasure)
	}
	marshal := func(r Report) []byte {
		b, err := json.Marshal(r)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	plain := run(nil)
	observed := run(&obs.Config{})
	traced := run(&obs.Config{Events: obs.DefaultEvents})
	if plain.Latency != nil {
		t.Fatal("unobserved report has a Latency section")
	}
	if observed.Latency == nil {
		t.Fatal("observed report lacks a Latency section")
	}
	if a, b := marshal(observed), marshal(traced); !bytes.Equal(a, b) {
		t.Errorf("keeping a trace changed the report:\nlatency: %s\ntraced:  %s", a, b)
	}
	observed.Latency = nil
	if a, b := marshal(plain), marshal(observed); !bytes.Equal(a, b) {
		t.Errorf("observation perturbed the run:\nplain:    %s\nobserved: %s", a, b)
	}
}

// TestChromeTraceDeterministic runs the same observed configuration twice and
// requires byte-identical trace exports.
func TestChromeTraceDeterministic(t *testing.T) {
	run := func() []byte {
		n := New(RMWConfig())
		n.AttachWorkload(1472, false)
		rec := n.EnableObs(obs.Config{Events: obs.DefaultEvents})
		n.Run(obsWarmup, obsMeasure)
		var buf bytes.Buffer
		if err := rec.WriteChromeTrace(&buf); err != nil {
			t.Fatalf("WriteChromeTrace: %v", err)
		}
		return buf.Bytes()
	}
	a, b := run(), run()
	if len(a) == 0 {
		t.Fatal("empty trace")
	}
	if !bytes.Equal(a, b) {
		t.Error("identical runs produced different traces")
	}
}

// TestFaultInstantsInTrace checks that an armed fault plan lands on the
// faults track, whichever order EnableObs and AttachFaults run in.
func TestFaultInstantsInTrace(t *testing.T) {
	for _, obsFirst := range []bool{true, false} {
		n := New(RMWConfig())
		n.AttachWorkload(1472, false)
		plan, err := faults.ParsePlan("seed=1;rx_drop@60us*4")
		if err != nil {
			t.Fatal(err)
		}
		var rec *obs.Recorder
		if obsFirst {
			rec = n.EnableObs(obs.Config{Events: obs.DefaultEvents})
		}
		if err := n.AttachFaults(plan); err != nil {
			t.Fatal(err)
		}
		if !obsFirst {
			rec = n.EnableObs(obs.Config{Events: obs.DefaultEvents})
		}
		n.Run(obsWarmup, obsMeasure)
		var buf bytes.Buffer
		if err := rec.WriteChromeTrace(&buf); err != nil {
			t.Fatal(err)
		}
		if !bytes.Contains(buf.Bytes(), []byte(`"rx_drop"`)) {
			t.Errorf("obsFirst=%v: trace lacks the rx_drop fault instant", obsFirst)
		}
	}
}

// TestLatencyOnlyKeepsNoTrace checks that a recorder without a trace pays
// only for its latency trackers: EnableObs(obs.Config{}) allocates no event
// ring, installs no stream hooks, and records no events.
func TestLatencyOnlyKeepsNoTrace(t *testing.T) {
	n := New(RMWConfig())
	n.AttachWorkload(1472, false)
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	rec := n.EnableObs(obs.Config{})
	runtime.ReadMemStats(&m1)
	b := m1.TotalAlloc - m0.TotalAlloc
	t.Logf("latency-only EnableObs allocated %d B", b)
	if b > 1200_000 {
		t.Errorf("latency-only EnableObs allocated %d B, want <= 1.2 MB", b)
	}
	if rec.Tracing() {
		t.Error("latency-only recorder keeps a trace")
	}
	if n.Cores[0].OnStreamBegin != nil || n.Cores[0].OnStreamEnd != nil {
		t.Error("latency-only recorder installed the core stream hooks")
	}
	n.Run(obsWarmup, obsMeasure)
	if total, dropped := rec.EventsRecorded(); total != 0 || dropped != 0 {
		t.Errorf("latency-only recorder recorded %d events (%d dropped), want 0", total, dropped)
	}
	if err := rec.WriteChromeTrace(new(bytes.Buffer)); err == nil {
		t.Error("WriteChromeTrace without a trace succeeded")
	}
}

// TestTraceAfterLatencySLO checks that a trace requested after AttachSLO
// created a latency-only recorder is kept: the exported trace carries core
// stream spans and fault instants, and matches a trace enabled up front.
func TestTraceAfterLatencySLO(t *testing.T) {
	run := func(sloFirst bool) []byte {
		n := New(RMWConfig())
		n.AttachWorkload(1472, false)
		plan, err := faults.ParsePlan("seed=1;rx_drop@60us*4")
		if err != nil {
			t.Fatal(err)
		}
		if err := n.AttachFaults(plan); err != nil {
			t.Fatal(err)
		}
		if sloFirst {
			if err := n.AttachSLO(SLO{RecvP99Us: 1000}); err != nil {
				t.Fatal(err)
			}
		}
		rec := n.EnableObs(obs.Config{Events: obs.DefaultEvents})
		if !sloFirst {
			if err := n.AttachSLO(SLO{RecvP99Us: 1000}); err != nil {
				t.Fatal(err)
			}
		}
		n.Run(obsWarmup, obsMeasure)
		var buf bytes.Buffer
		if err := rec.WriteChromeTrace(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	late := run(true)
	for _, want := range []string{`"ph":"B","pid":0,"tid":0`, `"rx_drop"`} {
		if !bytes.Contains(late, []byte(want)) {
			t.Errorf("trace added after AttachSLO lacks %s", want)
		}
	}
	if !bytes.Equal(late, run(false)) {
		t.Error("trace added after AttachSLO differs from one enabled before it")
	}
}
