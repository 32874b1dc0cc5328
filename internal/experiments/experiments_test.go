package experiments

import (
	"context"
	"strings"
	"testing"

	"repro/internal/sim"
	"repro/internal/sweep"
)

// tiny is an extra-short budget so this package's tests stay fast; the
// full-length validations live in internal/core.
var tiny = Budget{Warmup: 400 * sim.Microsecond, Measure: 300 * sim.Microsecond}

// runJobs runs jobs through a one-worker sweep.Runner, as nicbench would with
// -parallel 1, and fails the test if any job fails.
func runJobs(t *testing.T, jobs []sweep.Job) []sweep.Result {
	t.Helper()
	r := &sweep.Runner{Run: Simulate, Workers: 1}
	res, err := r.Sweep(context.Background(), jobs)
	if err != nil {
		t.Fatal(err)
	}
	for _, x := range res {
		if !x.OK() {
			t.Fatalf("job %s: %s", x.ID, x.Err)
		}
	}
	return res
}

func TestTable1TotalsMatchPaperProse(t *testing.T) {
	rows := Table1()
	if len(rows) != 4 {
		t.Fatalf("rows = %d", len(rows))
	}
	send := rows[0].Instructions + rows[1].Instructions
	recv := rows[2].Instructions + rows[3].Instructions
	if send < 270 || send > 295 {
		t.Errorf("send ideal instructions = %.1f, want ~282", send)
	}
	if recv < 240 || recv > 265 {
		t.Errorf("receive ideal instructions = %.1f, want ~253", recv)
	}
}

func TestPrintersProduceOutput(t *testing.T) {
	var b strings.Builder
	PrintTable1(&b)
	PrintTable2(&b, Table2Trace(20000))
	if !strings.Contains(b.String(), "Fetch Send BD") || !strings.Contains(b.String(), "OOO-4") {
		t.Errorf("printer output incomplete:\n%s", b.String())
	}
}

func TestFigure7PointOrdering(t *testing.T) {
	pts, err := Fig7Points(runJobs(t, Figure7Jobs(tiny, []int{2}, []float64{100, 400})))
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 2 {
		t.Fatalf("points = %d", len(pts))
	}
	if pts[0].Fraction >= pts[1].Fraction {
		t.Errorf("throughput did not grow with frequency: %.3f -> %.3f",
			pts[0].Fraction, pts[1].Fraction)
	}
}

func TestFigure8ShapesAndPrinter(t *testing.T) {
	pts, err := Fig8Points(runJobs(t, Figure8Jobs(tiny, []int{1472, 200})))
	if err != nil {
		t.Fatal(err)
	}
	if pts[0].LimitGbps <= pts[1].LimitGbps {
		t.Error("Ethernet limit should fall with datagram size")
	}
	if pts[1].SWFPS < pts[0].SWFPS {
		t.Error("small frames should not lower the achieved frame rate")
	}
	var b strings.Builder
	PrintFigure8(&b, pts)
	if !strings.Contains(b.String(), "1472") {
		t.Error("printer missing sizes")
	}
}

func TestAblationBanksMonotoneConflicts(t *testing.T) {
	rs, err := ReportsOf(runJobs(t, AblationBanksJobs(tiny, []int{1, 8})))
	if err != nil {
		t.Fatal(err)
	}
	if rs[0].FracConflict <= rs[1].FracConflict {
		t.Errorf("1-bank conflicts %.3f not above 8-bank %.3f",
			rs[0].FracConflict, rs[1].FracConflict)
	}
}
