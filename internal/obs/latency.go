package obs

import "repro/internal/sim"

// frameLat is one frame's per-stage timestamp vector. Zero means "not
// recorded" — valid because no lifecycle event happens at simulated time 0.
type frameLat struct {
	t [maxStages]sim.Picoseconds
}

// dirTracker tracks one direction's frames. A frame is keyed by its entry
// in the firmware's frame table, which it holds alone from stage 1 to its
// last stage, so one vector per table entry holds every live frame: stage 1
// claims (and zeroes) the vector, and no later frame can take it before the
// frame finishes.
type dirTracker struct {
	nStages int
	frames  []frameLat

	// origins is a fixed ring of pre-identity timestamps (FrameOrigin),
	// consumed in order by stage 1: both paths assign frame indices in origin
	// order, so the FIFO pairing is exact. A pending origin belongs to a
	// frame that already holds what bounds the table (a posted send ring
	// slot, an allocated receive buffer), so the ring is the table's size.
	origins    []sim.Picoseconds
	originHead int
	originN    int

	hist Histogram
	// Per-stage residency accumulators, indexed by the stage that *ends* the
	// residency (entry 0 unused): sum and max of t[i]-t[i-1], and how many
	// frames had both endpoints recorded.
	stageSum []sim.Picoseconds
	stageMax []sim.Picoseconds
	stageCnt []uint64
}

func (t *dirTracker) init(nStages, frames int) {
	t.nStages = nStages
	t.frames = make([]frameLat, frames)
	t.origins = make([]sim.Picoseconds, frames)
	t.stageSum = make([]sim.Picoseconds, nStages)
	t.stageMax = make([]sim.Picoseconds, nStages)
	t.stageCnt = make([]uint64, nStages)
}

func (t *dirTracker) origin(at sim.Picoseconds) {
	if t.originN == len(t.origins) {
		panic("obs: more frame origins pending than the frame table holds")
	}
	t.origins[(t.originHead+t.originN)%len(t.origins)] = at
	t.originN++
}

func (t *dirTracker) stage(stage int, entry int, at sim.Picoseconds) {
	fl := &t.frames[entry]
	if stage == 1 {
		*fl = frameLat{}
		if t.originN > 0 {
			fl.t[0] = t.origins[t.originHead]
			t.originHead = (t.originHead + 1) % len(t.origins)
			t.originN--
		}
	}
	fl.t[stage] = at
	if stage == t.nStages-1 {
		t.finish(fl, at)
	}
}

// finish folds a completed frame into the histograms.
func (t *dirTracker) finish(fl *frameLat, at sim.Picoseconds) {
	start := fl.t[0]
	if start == 0 {
		// Origin unknown (observability enabled mid-stream): measure from the
		// first identified stage instead of skewing the histogram with zeros.
		start = fl.t[1]
	}
	if start == 0 || at < start {
		return
	}
	t.hist.Add(at - start)
	for i := 1; i < t.nStages; i++ {
		a, b := fl.t[i-1], fl.t[i]
		if a == 0 || b == 0 || b < a {
			continue
		}
		d := b - a
		t.stageSum[i] += d
		t.stageCnt[i]++
		if d > t.stageMax[i] {
			t.stageMax[i] = d
		}
	}
}

// latencyOf reads the end-to-end latency of the frame at entry ending at
// time at, using the same origin fallback as finish. ok is false when the
// entry holds no usable start (observation enabled mid-stream).
func (t *dirTracker) latencyOf(entry int, at sim.Picoseconds) (sim.Picoseconds, bool) {
	fl := &t.frames[entry]
	start := fl.t[0]
	if start == 0 {
		start = fl.t[1]
	}
	if start == 0 || at < start {
		return 0, false
	}
	return at - start, true
}

func (t *dirTracker) reset() {
	t.hist.Reset()
	for i := range t.stageSum {
		t.stageSum[i] = 0
		t.stageMax[i] = 0
		t.stageCnt[i] = 0
	}
}

// StageLatency is one per-stage residency row: the time frames spent between
// two adjacent lifecycle stages.
//
//nic:hashstable 021c5c545f18
type StageLatency struct {
	Name   string  `json:"name"` // "from->to"
	Frames uint64  `json:"frames"`
	MeanUs float64 `json:"mean_us"`
	MaxUs  float64 `json:"max_us"`
}

// DirLatency is one direction's frame-latency summary: end-to-end quantiles
// plus the per-stage residency breakdown.
//
//nic:hashstable 4abf0defc451
type DirLatency struct {
	Frames uint64         `json:"frames"`
	P50Us  float64        `json:"p50_us"`
	P90Us  float64        `json:"p90_us"`
	P99Us  float64        `json:"p99_us"`
	MaxUs  float64        `json:"max_us"`
	Stages []StageLatency `json:"stages"`
}

// QueueLatency is one receive queue's latency and occupancy summary,
// present only on multi-queue builds (EnableRecvQueues).
//
//nic:hashstable af3731ddd7c8
type QueueLatency struct {
	Queue  int     `json:"queue"`
	Frames uint64  `json:"frames"`
	P50Us  float64 `json:"p50_us"`
	P99Us  float64 `json:"p99_us"`
	MaxUs  float64 `json:"max_us"`

	// MeanOccupancy is the time-weighted mean number of frames in flight on
	// this queue (buffered but not yet delivered) over the measurement
	// window; MaxOccupancy is its peak.
	MeanOccupancy float64 `json:"mean_occupancy"`
	MaxOccupancy  int     `json:"max_occupancy"`
}

// LatencyReport is the Latency section of a core report. RecvQueues is
// omitted on single-ring builds, keeping their reports byte-identical to
// pre-RSS ones.
//
//nic:hashstable ac32f89ac99c
type LatencyReport struct {
	Send DirLatency `json:"send"`
	Recv DirLatency `json:"recv"`

	RecvQueues []QueueLatency `json:"recv_queues,omitempty"`
}

func us(p sim.Picoseconds) float64 { return float64(p) / 1e6 }

func (t *dirTracker) report(dir Dir) DirLatency {
	d := DirLatency{
		Frames: t.hist.N(),
		P50Us:  us(t.hist.Quantile(0.50)),
		P90Us:  us(t.hist.Quantile(0.90)),
		P99Us:  us(t.hist.Quantile(0.99)),
		MaxUs:  us(t.hist.Max()),
	}
	for i := 1; i < t.nStages; i++ {
		s := StageLatency{
			Name:   StageName(dir, i-1) + "->" + StageName(dir, i),
			Frames: t.stageCnt[i],
			MaxUs:  us(t.stageMax[i]),
		}
		if s.Frames > 0 {
			s.MeanUs = us(t.stageSum[i]) / float64(s.Frames)
		}
		d.Stages = append(d.Stages, s)
	}
	return d
}

// LatencyReport summarizes the frame latencies observed since the last
// ResetLatency. Nil receivers return nil, so callers can assign the result
// into an omitempty report field unconditionally.
func (r *Recorder) LatencyReport() *LatencyReport {
	if r == nil {
		return nil
	}
	lr := &LatencyReport{
		Send: r.lat[Send].report(Send),
		Recv: r.lat[Recv].report(Recv),
	}
	for i := range r.recvQ {
		q := &r.recvQ[i]
		ql := QueueLatency{
			Queue:        i,
			Frames:       q.hist.N(),
			P50Us:        us(q.hist.Quantile(0.50)),
			P99Us:        us(q.hist.Quantile(0.99)),
			MaxUs:        us(q.hist.Max()),
			MaxOccupancy: q.occMax,
		}
		if span := q.last - q.resetAt; span > 0 {
			ql.MeanOccupancy = float64(q.occSum) / float64(span)
		}
		lr.RecvQueues = append(lr.RecvQueues, ql)
	}
	return lr
}
