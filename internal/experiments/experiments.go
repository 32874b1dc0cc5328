// Package experiments regenerates every table and figure of the paper's
// evaluation: the per-task cost accounting (Table 1), the ILP limit study
// (Table 2), the coherent-cache study (Figure 3), the core/frequency scaling
// sweep (Figure 7), the computation and bandwidth breakdowns (Tables 3 and
// 4), the frame-ordering comparison (Tables 5 and 6), and the frame-size
// sweep (Figure 8) — plus the ablations called out in DESIGN.md.
package experiments

import (
	"context"
	"fmt"
	"io"

	"repro/internal/core"
	"repro/internal/ethernet"
	"repro/internal/firmware"
	"repro/internal/fwkernels"
	"repro/internal/ilp"
	"repro/internal/mem"
	"repro/internal/sim"
	"repro/internal/smpcache"
	"repro/internal/trace"
)

// Budget selects simulation window lengths: Quick for tests and smoke runs,
// Full for recorded results.
type Budget struct {
	Warmup  sim.Picoseconds
	Measure sim.Picoseconds
}

// Quick is a short window for CI-style runs.
var Quick = Budget{Warmup: 800 * sim.Microsecond, Measure: 500 * sim.Microsecond}

// Full is the recorded-results window.
var Full = Budget{Warmup: 1500 * sim.Microsecond, Measure: 1000 * sim.Microsecond}

// ---------------------------------------------------------------------------
// Table 1 — ideal per-frame task costs
// ---------------------------------------------------------------------------

// Table1Row is one task's ideal per-frame cost.
type Table1Row struct {
	Function     string
	Instructions float64
	DataAccesses float64
}

// Table1 reconstructs the ideal (overhead-free) per-frame costs. The batch
// tasks are weighted per frame exactly as the paper weights them (32 send
// BDs = 16 frames, 16 receive BDs = 16 frames per descriptor DMA).
func Table1() []Table1Row {
	p := firmware.DefaultProfile(firmware.SoftwareOnly)
	perFrame := func(c firmware.TaskCost, frames float64) Table1Row {
		return Table1Row{
			Instructions: float64(c.Instr) / frames,
			DataAccesses: float64(c.Accesses()) / frames,
		}
	}
	add := func(rows ...Table1Row) Table1Row {
		var out Table1Row
		for _, r := range rows {
			out.Instructions += r.Instructions
			out.DataAccesses += r.DataAccesses
		}
		return out
	}
	fetchSend := perFrame(p.FetchSendBDBatch, firmware.FramesPerSendBD)
	fetchSend.Function = "Fetch Send BD"
	sendFrame := add(perFrame(p.SendFramePrep, 1), perFrame(p.SendFrameDone, 1), perFrame(p.SendFrameComplete, 1))
	sendFrame.Function = "Send Frame"
	fetchRecv := perFrame(p.FetchRecvBDBatch, firmware.RecvBDsPerBatch)
	fetchRecv.Function = "Fetch Receive BD"
	recvFrame := add(perFrame(p.RecvFramePrep, 1), perFrame(p.RecvFrameDone, 1), perFrame(p.RecvFrameComplete, 1))
	recvFrame.Function = "Receive Frame"
	return []Table1Row{fetchSend, sendFrame, fetchRecv, recvFrame}
}

// PrintTable1 renders Table 1.
func PrintTable1(w io.Writer) {
	fmt.Fprintln(w, "Table 1: ideal per-frame instructions and data accesses")
	fmt.Fprintf(w, "  %-18s %14s %14s\n", "Function", "Instructions", "Data Accesses")
	var ti, ta float64
	for _, r := range Table1() {
		fmt.Fprintf(w, "  %-18s %14.1f %14.1f\n", r.Function, r.Instructions, r.DataAccesses)
		ti += r.Instructions
		ta += r.DataAccesses
	}
	rate := ethernet.FramesPerSecond(ethernet.MaxFrame)
	fmt.Fprintf(w, "  full-duplex line rate requires %.0f MIPS and %.2f Gb/s of control data\n",
		ti*rate/1e6, ta*4*8*rate/1e9)
}

// ---------------------------------------------------------------------------
// Table 2 — ILP limits
// ---------------------------------------------------------------------------

// Table2Trace builds the dynamic instruction trace analyzed for Table 2:
// real traces of the ordering kernels executed on the ISA interpreter,
// concatenated with the calibrated synthetic firmware body.
func Table2Trace(n int) []trace.Inst {
	kernel, err := fwkernels.OrderingTrace(256, 8)
	if err != nil {
		panic(err)
	}
	body := trace.FirmwareProfile().Synthesize(n)
	return append(kernel, body...)
}

// PrintTable2 renders the IPC-limit grid.
func PrintTable2(w io.Writer, tr []trace.Inst) {
	grid := ilp.Table2(tr)
	fmt.Fprintln(w, "Table 2: theoretical peak IPC of NIC firmware")
	fmt.Fprintf(w, "  %-8s | %-13s | %s\n", "", "perfect pipe", "with pipeline stalls")
	fmt.Fprintf(w, "  %-8s | %5s %5s | %5s %5s %5s\n", "config", "PBP", "NoBP", "PBP", "PBP1", "NoBP")
	for i, row := range ilp.Table2Rows {
		fmt.Fprintf(w, "  %-8s | %5.2f %5.2f | %5.2f %5.2f %5.2f\n",
			fmt.Sprintf("%v-%d", row.Order, row.Width),
			grid[i][0].IPC(), grid[i][1].IPC(), grid[i][2].IPC(), grid[i][3].IPC(), grid[i][4].IPC())
	}
}

// ---------------------------------------------------------------------------
// Figure 3 — coherent cache study
// ---------------------------------------------------------------------------

// figure3Collect is the Figure 3 job body. It captures per-processor
// metadata traces from a run of cfg (DMA assists interleaved into one cache,
// MAC assists into another, matching the paper's workaround for SMPCache's
// eight-cache limit) and sweeps fully-associative MESI caches from 16 B to
// 32 KB, with cooperative cancellation. The paper's point is six cores.
func figure3Collect(ctx context.Context, cfg core.Config, udpSize int, b Budget, maxRefs int) ([]smpcache.SweepPoint, core.Report, error) {
	n := core.New(cfg)
	n.AttachWorkload(udpSize, false)
	traces := n.EnableTracing(maxRefs)
	defer watchdog(ctx, n.Engine)()
	r := n.Run(b.Warmup, b.Measure)
	if ctx != nil && ctx.Err() != nil {
		return nil, core.Report{}, ctx.Err()
	}

	meta := func(in []trace.MemRef) []trace.MemRef {
		out := make([]trace.MemRef, 0, len(in))
		for _, r := range in {
			if firmware.IsFrameMetadata(r.Addr) {
				out = append(out, r)
			}
		}
		return out
	}
	cores := cfg.Cores
	var refs []trace.MemRef
	for p := 0; p < cores; p++ {
		for _, r := range meta(*traces[p]) {
			r.Proc = p
			refs = append(refs, r)
		}
	}
	refs = append(refs, trace.Interleave(cores, meta(*traces[cores]), meta(*traces[cores+1]))...)
	refs = append(refs, trace.Interleave(cores+1, meta(*traces[cores+2]), meta(*traces[cores+3]))...)
	return smpcache.Sweep(refs, cores+2, 16, smpcache.PaperSizes()), r, nil
}

// PrintFigure3 renders the hit-ratio curve.
func PrintFigure3(w io.Writer, pts []smpcache.SweepPoint) {
	fmt.Fprintln(w, "Figure 3: collective cache hit ratio vs per-processor cache size")
	fmt.Fprintln(w, "  (fully associative, LRU, 16 B lines, MESI, 8 caches)")
	for _, p := range pts {
		bar := int(p.HitRatio * 50)
		fmt.Fprintf(w, "  %7s  %5.1f%%  inval %5.2f%%  |%s\n",
			byteSize(p.CacheBytes), 100*p.HitRatio, 100*p.InvalRate, bars(bar))
	}
}

// ---------------------------------------------------------------------------
// Figure 7 — frequency and core-count scaling
// ---------------------------------------------------------------------------

// Fig7Point is one point of the scaling study.
type Fig7Point struct {
	Cores     int
	MHz       float64
	TotalGbps float64
	Fraction  float64
}

// PaperFig7Cores and PaperFig7MHz are the sweep axes of Figure 7.
var (
	PaperFig7Cores = []int{1, 2, 4, 6, 8}
	PaperFig7MHz   = []float64{100, 150, 166, 175, 200, 300, 400, 600, 800}
)

// PrintFigure7 renders the sweep grouped by core count.
func PrintFigure7(w io.Writer, pts []Fig7Point) {
	fmt.Fprintln(w, "Figure 7: full-duplex UDP throughput (Gb/s) vs core frequency")
	fmt.Fprintf(w, "  duplex Ethernet limit: %.2f Gb/s\n", 2*ethernet.PayloadThroughputGbps(1472))
	last := -1
	for _, p := range pts {
		if p.Cores != last {
			fmt.Fprintf(w, "  %d core(s):\n", p.Cores)
			last = p.Cores
		}
		fmt.Fprintf(w, "    %4.0f MHz  %6.2f Gb/s (%5.1f%%)  |%s\n",
			p.MHz, p.TotalGbps, 100*p.Fraction, bars(int(p.Fraction*50)))
	}
}

// ---------------------------------------------------------------------------
// Tables 3 & 4 — computation and bandwidth breakdowns
// ---------------------------------------------------------------------------

// PrintTable3 renders the per-core computation breakdown of a report.
func PrintTable3(w io.Writer, r core.Report) {
	fmt.Fprintf(w, "Table 3: computation breakdown, %d cores @ %.0f MHz (%v)\n",
		r.Cfg.Cores, r.Cfg.CPUMHz, r.Cfg.Ordering)
	fmt.Fprintf(w, "  %-26s %5.2f\n", "Execution", r.IPC)
	fmt.Fprintf(w, "  %-26s %5.2f\n", "Instruction miss stalls", r.FracIMiss)
	fmt.Fprintf(w, "  %-26s %5.2f\n", "Load stalls", r.FracLoad)
	fmt.Fprintf(w, "  %-26s %5.2f\n", "Scratchpad conflict stalls", r.FracConflict)
	fmt.Fprintf(w, "  %-26s %5.2f\n", "Pipeline stalls", r.FracPipeline)
	total := r.IPC + r.FracIMiss + r.FracLoad + r.FracConflict + r.FracPipeline
	fmt.Fprintf(w, "  %-26s %5.2f\n", "Total", total)
}

// PrintTable4 renders the bandwidth table.
func PrintTable4(w io.Writer, r core.Report) {
	fmt.Fprintf(w, "Table 4: bandwidth consumed, %d cores @ %.0f MHz\n", r.Cfg.Cores, r.Cfg.CPUMHz)
	peakScratch := float64(r.Cfg.ScratchpadBanks) * r.Cfg.CPUMHz * 1e6 * 32 / 1e9
	fmt.Fprintf(w, "  %-20s required %6.2f  peak %6.2f  consumed %6.2f Gb/s\n",
		"Scratchpads", 4.8, peakScratch, r.ScratchGbps)
	fmt.Fprintf(w, "  %-20s required %6.2f  peak %6.2f  consumed %6.2f Gb/s (%.2f useful)\n",
		"Frame memory", 39.5, mem.PeakGbps(), r.FrameMemGbps, r.FrameUsefulGbps)
	fmt.Fprintf(w, "  %-20s port busy %.1f%% (idle %.1f%% of the time)\n",
		"Instruction memory", 100*r.IMemUtilization, 100*(1-r.IMemUtilization))
}

// ---------------------------------------------------------------------------
// Tables 5 & 6 — frame-ordering comparison
// ---------------------------------------------------------------------------

// OrderingComparison holds the software-only and RMW-enhanced reports at
// their paper operating points (200 MHz and 166 MHz).
type OrderingComparison struct {
	SW  core.Report
	RMW core.Report
}

// PrintTable5 renders per-packet instructions and memory accesses for the
// ideal, software-only, and RMW-enhanced firmware.
func PrintTable5(w io.Writer, c OrderingComparison) {
	ideal := Table1()
	fmt.Fprintln(w, "Table 5: per-packet execution profiles (instructions | memory accesses)")
	fmt.Fprintf(w, "  %-28s %15s %17s %17s\n", "Function", "Ideal", "Software-only", "RMW-enhanced")
	row := func(name string, idI, idM float64, sw, rmw core.FuncRow) {
		id := "      -    -"
		if idI >= 0 {
			id = fmt.Sprintf("%7.1f %6.1f", idI, idM)
		}
		fmt.Fprintf(w, "  %-28s %17s %8.1f %8.1f %8.1f %8.1f\n",
			name, id, sw.InstrPerFrm, sw.MemPerFrm, rmw.InstrPerFrm, rmw.MemPerFrm)
	}
	row("Fetch Send BD", ideal[0].Instructions, ideal[0].DataAccesses, c.SW.Send.FetchBD, c.RMW.Send.FetchBD)
	row("Send Frame", ideal[1].Instructions, ideal[1].DataAccesses, c.SW.Send.Frame, c.RMW.Send.Frame)
	row("Send Dispatch and Ordering", -1, -1, c.SW.Send.DispOrder, c.RMW.Send.DispOrder)
	row("Send Locking", -1, -1, c.SW.Send.Locking, c.RMW.Send.Locking)
	row("Fetch Receive BD", ideal[2].Instructions, ideal[2].DataAccesses, c.SW.Recv.FetchBD, c.RMW.Recv.FetchBD)
	row("Receive Frame", ideal[3].Instructions, ideal[3].DataAccesses, c.SW.Recv.Frame, c.RMW.Recv.Frame)
	row("Receive Dispatch and Ordering", -1, -1, c.SW.Recv.DispOrder, c.RMW.Recv.DispOrder)
	row("Receive Locking", -1, -1, c.SW.Recv.Locking, c.RMW.Recv.Locking)
	sOrd := 1 - c.RMW.Send.DispOrder.InstrPerFrm/c.SW.Send.DispOrder.InstrPerFrm
	rOrd := 1 - c.RMW.Recv.DispOrder.InstrPerFrm/c.SW.Recv.DispOrder.InstrPerFrm
	sMem := 1 - c.RMW.Send.DispOrder.MemPerFrm/c.SW.Send.DispOrder.MemPerFrm
	rMem := 1 - c.RMW.Recv.DispOrder.MemPerFrm/c.SW.Recv.DispOrder.MemPerFrm
	fmt.Fprintf(w, "  dispatch+ordering instruction reduction: send %.1f%%, receive %.1f%% (paper: 51.5%%, 30.8%%)\n", 100*sOrd, 100*rOrd)
	fmt.Fprintf(w, "  dispatch+ordering access reduction:      send %.1f%%, receive %.1f%% (paper: 65.0%%, 35.2%%)\n", 100*sMem, 100*rMem)
}

// PrintTable6 renders cycles per packet per function for the two operating
// points.
func PrintTable6(w io.Writer, c OrderingComparison) {
	fmt.Fprintln(w, "Table 6: cycles per packet (software-only @200 MHz vs RMW-enhanced @166 MHz)")
	fmt.Fprintf(w, "  %-28s %14s %14s\n", "Function", "Software-only", "RMW-enhanced")
	row := func(name string, sw, rmw core.FuncRow) {
		fmt.Fprintf(w, "  %-28s %14.1f %14.1f\n", name, sw.CyclesPerFrm, rmw.CyclesPerFrm)
	}
	row("Fetch Send BD", c.SW.Send.FetchBD, c.RMW.Send.FetchBD)
	row("Send Frame", c.SW.Send.Frame, c.RMW.Send.Frame)
	row("Send Dispatch and Ordering", c.SW.Send.DispOrder, c.RMW.Send.DispOrder)
	row("Send Locking", c.SW.Send.Locking, c.RMW.Send.Locking)
	row("Send Total", c.SW.Send.Total, c.RMW.Send.Total)
	row("Fetch Receive BD", c.SW.Recv.FetchBD, c.RMW.Recv.FetchBD)
	row("Receive Frame", c.SW.Recv.Frame, c.RMW.Recv.Frame)
	row("Receive Dispatch and Ordering", c.SW.Recv.DispOrder, c.RMW.Recv.DispOrder)
	row("Receive Locking", c.SW.Recv.Locking, c.RMW.Recv.Locking)
	row("Receive Total", c.SW.Recv.Total, c.RMW.Recv.Total)
	sRed := 1 - c.RMW.Send.Total.CyclesPerFrm/c.SW.Send.Total.CyclesPerFrm
	rRed := 1 - c.RMW.Recv.Total.CyclesPerFrm/c.SW.Recv.Total.CyclesPerFrm
	fmt.Fprintf(w, "  cycle reduction: send %.1f%% (paper 28.4%%), receive %.1f%% (paper 4.7%%)\n", 100*sRed, 100*rRed)
	fmt.Fprintf(w, "  both configurations at line rate; clock reduced 200 -> 166 MHz (17%%)\n")
}

// ---------------------------------------------------------------------------
// Figure 8 — frame-size sweep
// ---------------------------------------------------------------------------

// Fig8Point is one point of the datagram-size sweep.
type Fig8Point struct {
	UDPSize   int
	SWGbps    float64
	RMWGbps   float64
	SWFPS     float64
	RMWFPS    float64
	LimitGbps float64
}

// PaperFig8Sizes is the datagram-size axis.
var PaperFig8Sizes = []int{18, 100, 200, 400, 800, 1200, 1472}

// PrintFigure8 renders the sweep.
func PrintFigure8(w io.Writer, pts []Fig8Point) {
	fmt.Fprintln(w, "Figure 8: full-duplex throughput vs UDP datagram size")
	fmt.Fprintf(w, "  %6s %10s %14s %14s %12s %12s\n",
		"size", "limit Gb/s", "sw-only Gb/s", "rmw Gb/s", "sw Mfps", "rmw Mfps")
	for _, p := range pts {
		fmt.Fprintf(w, "  %6d %10.2f %14.2f %14.2f %12.2f %12.2f\n",
			p.UDPSize, p.LimitGbps, p.SWGbps, p.RMWGbps, p.SWFPS/1e6, p.RMWFPS/1e6)
	}
}

// ---------------------------------------------------------------------------
// Ablations
// ---------------------------------------------------------------------------

// PrintAblationBanks renders the bank sweep.
func PrintAblationBanks(w io.Writer, reports []core.Report) {
	fmt.Fprintln(w, "Ablation A: scratchpad banking (6 cores @ 200 MHz)")
	for _, r := range reports {
		fmt.Fprintf(w, "  %d bank(s): %6.2f Gb/s (%5.1f%%), conflict stalls %.3f/cycle\n",
			r.Cfg.ScratchpadBanks, r.TotalGbps, 100*r.LineFraction, r.FracConflict)
	}
}

// PrintAblationTaskParallel renders the comparison.
func PrintAblationTaskParallel(w io.Writer, fp, tp []core.Report) {
	fmt.Fprintln(w, "Ablation B: frame-level vs task-level parallel firmware")
	for i := range fp {
		fmt.Fprintf(w, "  %d core(s) @ %.0f MHz: frame-parallel %6.2f Gb/s, task-parallel %6.2f Gb/s\n",
			fp[i].Cfg.Cores, fp[i].Cfg.CPUMHz, fp[i].TotalGbps, tp[i].TotalGbps)
	}
}

func bars(n int) string {
	if n < 0 {
		n = 0
	}
	if n > 60 {
		n = 60
	}
	out := make([]byte, n)
	for i := range out {
		out[i] = '#'
	}
	return string(out)
}

func byteSize(n int) string {
	if n >= 1024 {
		return fmt.Sprintf("%d KB", n/1024)
	}
	return fmt.Sprintf("%d B", n)
}
