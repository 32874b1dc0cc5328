package obs

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/sim"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite golden files")

// buildTestRecorder records one event of every kind with a scripted clock.
func buildTestRecorder() *Recorder {
	clk := &fakeClock{}
	r := NewRecorder(Config{Events: 64}, clk.now, 64, 64)
	core0 := r.AddTrack("core 0")
	dma := r.AddTrack("dma-read")
	faults := r.AddTrack("faults")
	frames := r.AddTrack("frames tx")
	r.SetFrameTrack(Send, frames)

	clk.at = 1 * sim.Microsecond
	r.Begin(core0, "send-prep")
	clk.at = 1*sim.Microsecond + 500*sim.Nanosecond
	r.Counter(dma, "in-flight", 2)
	clk.at += sim.Picoseconds(250) // sub-nanosecond precision must survive
	r.FrameStage(Send, SendBDFetched, 0, 0)
	clk.at = 2 * sim.Microsecond
	r.Instant(faults, "rx_corrupt")
	clk.at = 3 * sim.Microsecond
	r.End(core0, "send-prep")
	return r
}

func TestChromeTraceGolden(t *testing.T) {
	var buf bytes.Buffer
	if err := buildTestRecorder().WriteChromeTrace(&buf); err != nil {
		t.Fatalf("WriteChromeTrace: %v", err)
	}
	golden := filepath.Join("testdata", "chrome_golden.json")
	if *updateGolden {
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("read golden (run `go test -run Golden -update-golden ./internal/obs` to create): %v", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("trace differs from %s:\ngot:\n%s\nwant:\n%s", golden, buf.Bytes(), want)
	}
}

// TestChromeTraceWellFormed decodes the export and checks the trace_event
// structure Perfetto requires.
func TestChromeTraceWellFormed(t *testing.T) {
	var buf bytes.Buffer
	if err := buildTestRecorder().WriteChromeTrace(&buf); err != nil {
		t.Fatalf("WriteChromeTrace: %v", err)
	}
	var doc struct {
		DisplayTimeUnit string `json:"displayTimeUnit"`
		TraceEvents     []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			TS   float64        `json:"ts"`
			TID  int            `json:"tid"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("export is not valid JSON: %v", err)
	}
	if doc.DisplayTimeUnit != "ns" {
		t.Errorf("displayTimeUnit = %q, want ns", doc.DisplayTimeUnit)
	}
	// 1 process_name + 4 thread_name metadata records, then 5 events.
	if len(doc.TraceEvents) != 10 {
		t.Fatalf("len(traceEvents) = %d, want 10", len(doc.TraceEvents))
	}
	kinds := map[string]int{}
	for _, e := range doc.TraceEvents {
		kinds[e.Ph]++
	}
	want := map[string]int{"M": 5, "B": 1, "E": 1, "i": 2, "C": 1}
	for ph, n := range want {
		if kinds[ph] != n {
			t.Errorf("ph %q count = %d, want %d (all: %v)", ph, kinds[ph], n, kinds)
		}
	}
}

func TestChromeTraceNilRecorder(t *testing.T) {
	var r *Recorder
	if err := r.WriteChromeTrace(&bytes.Buffer{}); err == nil {
		t.Error("WriteChromeTrace on nil recorder returned no error")
	}
}
