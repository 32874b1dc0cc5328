// Package obs is the frame-lifecycle tracing and latency observability
// layer: a deterministic event recorder the NIC's layers (MAC assists,
// firmware dispatch and ordering, DMA assists, host completion) report into.
//
// The recorder is designed to be absent-by-default: every hook site holds a
// nil *Recorder until observability is enabled, and all public methods are
// nil-receiver safe no-ops, so a disabled run executes exactly the code it
// executed before the hooks existed. When enabled, the hot path writes into
// preallocated rings — no allocation, no map, no clock reads beyond the
// engine's own Now — so the event order and every recorded timestamp are pure
// functions of the (deterministic) simulation, making traces byte-identical
// across runs of the same seed and configuration.
//
// Two products come out of one stream of hooks, and a recorder pays only for
// the ones it keeps:
//
//   - Per-frame latency, always: each direction keeps a vector of per-stage
//     timestamps for each entry of the firmware's frame table, one per frame
//     that can be live; when a frame reaches its final stage the total and
//     per-stage residencies fold into histograms (LatencyReport). At the
//     paper's 512-frame rings the two directions take 72 KB.
//   - An event trace, only when Config.Events > 0 (or after KeepTrace): a
//     fixed-capacity keep-last ring of typed events (stream spans on cores,
//     wire spans on the MACs, in-flight counters on the DMA engines, fault
//     instants, sampled frame-stage instants), exportable in Chrome
//     trace_event format (WriteChromeTrace). DefaultEvents entries take
//     5 MB. Without a ring the trace methods return at once.
package obs

import "repro/internal/sim"

// Dir selects a frame direction.
type Dir uint8

// Frame directions.
const (
	Send Dir = iota
	Recv
	numDirs
)

// Send-path stages, in pipeline order. SendPosted is recorded by the host
// driver via FrameOrigin (the frame has no firmware identity yet);
// SendBDFetched is the first stage recorded against the firmware's frame
// index and claims the latency slot.
const (
	SendPosted = iota
	SendBDFetched
	SendDMAStart
	SendDMADone
	SendFlagSet
	SendCommitted
	SendWireDone
	SendNotified
	NumSendStages
)

// Receive-path stages, in pipeline order. RecvArrived is recorded by the MAC
// via FrameOrigin at the wire-arrival instant; RecvBuffered (frame fully in
// the SDRAM receive buffer) is the first stage with a firmware index.
const (
	RecvArrived = iota
	RecvBuffered
	RecvDMAStart
	RecvDMADone
	RecvFlagSet
	RecvDelivered
	NumRecvStages
)

// maxStages bounds the per-frame timestamp vector.
const maxStages = NumSendStages

var sendStageNames = [NumSendStages]string{
	"posted", "bd_fetched", "dma_start", "dma_done",
	"flag_set", "committed", "wire_done", "notified",
}

var recvStageNames = [NumRecvStages]string{
	"arrived", "buffered", "dma_start", "dma_done",
	"flag_set", "delivered",
}

// StageName returns the name of one lifecycle stage.
func StageName(dir Dir, stage int) string {
	if dir == Send {
		return sendStageNames[stage]
	}
	return recvStageNames[stage]
}

// evKind discriminates trace-ring entries. Switches over evKind are checked
// by niclint's exhaustive analyzer: a new kind must be handled by every
// serializer or explicitly opted out.
//
//nic:exhaustive
type evKind uint8

const (
	evBegin evKind = iota
	evEnd
	evInstant
	evCounter
	evStage
)

// event is one trace-ring entry. Name strings come from static call sites
// (stream names, stage names), so recording one never allocates.
type event struct {
	at    sim.Picoseconds
	kind  evKind
	dir   Dir
	stage uint8
	track int32
	val   uint64
	name  string
}

// Config sizes a Recorder.
type Config struct {
	// Events switches the event trace on and sets its ring capacity; the
	// ring keeps the most recent events and counts the rest as dropped.
	// <= 0 keeps no trace: the recorder aggregates latency only.
	Events int
	// FrameSample emits every k-th frame's lifecycle stages into the trace
	// ring as instants (latency aggregation always sees every frame).
	// <= 1 traces every frame.
	FrameSample int
}

// DefaultEvents is the usual trace-ring capacity (40 B an event, 5 MB).
const DefaultEvents = 1 << 17

// Recorder collects events and per-frame latencies. The zero value is not
// usable; construct with NewRecorder. A nil *Recorder is a valid no-op
// receiver for every recording method.
type Recorder struct {
	now    func() sim.Picoseconds
	ring   []event
	head   uint64 // total events recorded; ring index = head % len(ring)
	sample uint64

	tracks     []string
	frameTrack [numDirs]int32

	lat [numDirs]dirTracker

	// recvQ holds per-receive-queue latency/occupancy trackers, allocated by
	// EnableRecvQueues on multi-queue builds; nil keeps single-ring latency
	// reports byte-identical to pre-RSS builds.
	recvQ []queueTracker
}

// queueTracker aggregates one receive queue's end-to-end latency histogram
// and its time-weighted in-flight occupancy (frames between buffering and
// delivery).
type queueTracker struct {
	hist Histogram

	cur     int             // frames currently in flight on this queue
	last    sim.Picoseconds // time of the last occupancy change
	resetAt sim.Picoseconds // start of the measurement window
	occSum  sim.Picoseconds // integral of cur over time since resetAt
	occMax  int
}

func (q *queueTracker) occStep(at sim.Picoseconds, delta int) {
	if at > q.last {
		q.occSum += sim.Picoseconds(q.cur) * (at - q.last)
		q.last = at
	}
	q.cur += delta
	if q.cur > q.occMax {
		q.occMax = q.cur
	}
}

// NewRecorder builds a recorder that aggregates latency and, when
// cfg.Events > 0, keeps an event trace. now supplies the current simulated
// time (bind it to the engine's Now after the engine is assembled).
// sendFrames and recvFrames are the sizes of the firmware's frame tables:
// every frame entry passed to FrameStage is below its direction's size, and
// no more frames than that are ever between FrameOrigin and stage 1.
func NewRecorder(cfg Config, now func() sim.Picoseconds, sendFrames, recvFrames int) *Recorder {
	r := &Recorder{now: now}
	r.frameTrack[Send] = -1
	r.frameTrack[Recv] = -1
	r.lat[Send].init(NumSendStages, sendFrames)
	r.lat[Recv].init(NumRecvStages, recvFrames)
	r.KeepTrace(cfg)
	return r
}

// KeepTrace gives a recorder without a trace an event ring of cfg.Events
// entries that samples every cfg.FrameSample-th frame, and reports whether
// it did; cfg.Events <= 0, or a ring already kept, leaves the recorder as it
// is. Call during wiring, before the run.
func (r *Recorder) KeepTrace(cfg Config) bool {
	if cfg.Events <= 0 || r.ring != nil {
		return false
	}
	r.ring = make([]event, cfg.Events)
	r.sample = uint64(max(cfg.FrameSample, 1))
	return true
}

// Tracing reports whether the recorder keeps an event trace.
func (r *Recorder) Tracing() bool { return r != nil && r.ring != nil }

// AddTrack registers a named trace track (a Perfetto thread) and returns its
// id. Call during wiring, before the run.
func (r *Recorder) AddTrack(name string) int32 {
	r.tracks = append(r.tracks, name)
	return int32(len(r.tracks) - 1)
}

// SetFrameTrack routes one direction's sampled frame-stage instants to a
// track.
func (r *Recorder) SetFrameTrack(dir Dir, track int32) { r.frameTrack[dir] = track }

// record appends one event to the keep-last ring.
//
//nic:hotpath
func (r *Recorder) record(ev event) {
	r.ring[r.head%uint64(len(r.ring))] = ev
	r.head++
}

// Begin opens a duration span (a stream picked up by a core, a frame going
// onto a MAC wire) on a track.
//
//nic:hotpath
func (r *Recorder) Begin(track int32, name string) {
	if !r.Tracing() {
		return
	}
	r.record(event{at: r.now(), kind: evBegin, track: track, name: name})
}

// End closes the innermost open span on a track.
//
//nic:hotpath
func (r *Recorder) End(track int32, name string) {
	if !r.Tracing() {
		return
	}
	r.record(event{at: r.now(), kind: evEnd, track: track, name: name})
}

// Instant marks a point event (fault injections) on a track.
//
//nic:hotpath
func (r *Recorder) Instant(track int32, name string) {
	if !r.Tracing() {
		return
	}
	r.record(event{at: r.now(), kind: evInstant, track: track, name: name})
}

// Counter records a counter value change (DMA jobs in flight) on a track.
//
//nic:hotpath
func (r *Recorder) Counter(track int32, name string, val int) {
	if !r.Tracing() {
		return
	}
	r.record(event{at: r.now(), kind: evCounter, track: track, name: name, val: uint64(val)})
}

// FrameOrigin timestamps a frame at its origin, before it has a firmware
// index: a send frame posted by the host driver, a receive frame fully
// arrived at the MAC. Origins are consumed in FIFO order by the direction's
// first indexed stage (frames acquire indices in origin order on both paths).
//
//nic:hotpath
func (r *Recorder) FrameOrigin(dir Dir) {
	if r == nil {
		return
	}
	r.lat[dir].origin(r.now())
}

// FrameStage timestamps one lifecycle stage of frame seq, which holds entry
// of its direction's frame table. The direction's stage 1 claims the
// entry's timestamp vector and pops the frame's origin timestamp; the final
// stage folds the frame into the latency histograms. Trace instants carry
// seq.
//
//nic:hotpath
func (r *Recorder) FrameStage(dir Dir, stage int, seq uint64, entry int) {
	if r == nil {
		return
	}
	at := r.now()
	r.lat[dir].stage(stage, entry, at)
	if t := r.frameTrack[dir]; t >= 0 && r.ring != nil && seq%r.sample == 0 {
		r.record(event{at: at, kind: evStage, dir: dir, stage: uint8(stage), track: t, val: seq})
	}
}

// EnableRecvQueues allocates per-receive-queue latency and occupancy
// trackers for a multi-queue build; call during wiring, before the run.
// Without this call FrameStageQ degrades to FrameStage and the latency
// report carries no per-queue section.
func (r *Recorder) EnableRecvQueues(n int) {
	if r == nil || n <= 1 {
		return
	}
	r.recvQ = make([]queueTracker, n)
}

// FrameStageQ timestamps one lifecycle stage of receive frame seq, at entry
// of its frame table, on a specific queue: FrameStage's aggregation plus,
// when per-queue tracking is enabled, queue occupancy (entered at buffering,
// left at delivery) and the per-queue end-to-end latency histogram.
//
//nic:hotpath
func (r *Recorder) FrameStageQ(dir Dir, stage int, seq uint64, entry, queue int) {
	if r == nil {
		return
	}
	r.FrameStage(dir, stage, seq, entry)
	if dir != Recv || queue < 0 || queue >= len(r.recvQ) {
		return
	}
	q := &r.recvQ[queue]
	at := r.now()
	switch stage {
	case RecvBuffered:
		q.occStep(at, 1)
	case RecvDelivered:
		q.occStep(at, -1)
		if lat, ok := r.lat[Recv].latencyOf(entry, at); ok {
			q.hist.Add(lat)
		}
	}
}

// ResetLatency clears the aggregated latency statistics (histograms, stage
// accumulators) without touching in-flight per-frame timestamps, so a frame
// spanning the reset still reports its true latency. Call at the start of
// the measurement window.
func (r *Recorder) ResetLatency() {
	if r == nil {
		return
	}
	r.lat[Send].reset()
	r.lat[Recv].reset()
	for i := range r.recvQ {
		q := &r.recvQ[i]
		q.hist.Reset()
		now := r.now()
		q.occStep(now, 0)
		q.resetAt = now
		q.occSum = 0
		q.occMax = q.cur
	}
}

// EventsRecorded returns total events recorded and how many the ring
// dropped (overwrote); 0 and 0 without a trace.
func (r *Recorder) EventsRecorded() (total, dropped uint64) {
	if r == nil {
		return 0, 0
	}
	total = r.head
	if n := uint64(len(r.ring)); total > n {
		dropped = total - n
	}
	return total, dropped
}
