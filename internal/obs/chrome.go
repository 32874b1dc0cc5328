package obs

import (
	"bufio"
	"fmt"
	"io"
	"strconv"

	"repro/internal/sim"
)

// WriteChromeTrace renders the event ring in Chrome trace_event JSON (the
// format Perfetto and chrome://tracing load): one metadata record per track
// naming its thread, then the events oldest-first. Output is a pure function
// of the recorded events — fixed field order, integer-exact timestamp
// formatting — so identical runs produce byte-identical traces.
func (r *Recorder) WriteChromeTrace(w io.Writer) error {
	if r == nil {
		return fmt.Errorf("obs: no recorder")
	}
	if r.ring == nil {
		return fmt.Errorf("obs: recorder keeps no trace")
	}
	bw := bufio.NewWriter(w)
	bw.WriteString(`{"displayTimeUnit":"ns","traceEvents":[`)
	first := true
	sep := func() {
		if first {
			first = false
		} else {
			bw.WriteString(",")
		}
		bw.WriteString("\n")
	}

	sep()
	bw.WriteString(`{"name":"process_name","ph":"M","pid":0,"tid":0,"args":{"name":"nicsim"}}`)
	for i, name := range r.tracks {
		sep()
		fmt.Fprintf(bw, `{"name":"thread_name","ph":"M","pid":0,"tid":%d,"args":{"name":%s}}`,
			i, strconv.Quote(name))
	}

	n := r.head
	size := uint64(len(r.ring))
	start := uint64(0)
	if n > size {
		start = n - size
	}
	for k := start; k < n; k++ {
		ev := &r.ring[k%size]
		sep()
		switch ev.kind {
		case evBegin:
			fmt.Fprintf(bw, `{"name":%s,"ph":"B","pid":0,"tid":%d,"ts":%s}`,
				strconv.Quote(ev.name), ev.track, tsUs(ev.at))
		case evEnd:
			fmt.Fprintf(bw, `{"name":%s,"ph":"E","pid":0,"tid":%d,"ts":%s}`,
				strconv.Quote(ev.name), ev.track, tsUs(ev.at))
		case evInstant:
			fmt.Fprintf(bw, `{"name":%s,"ph":"i","s":"t","pid":0,"tid":%d,"ts":%s}`,
				strconv.Quote(ev.name), ev.track, tsUs(ev.at))
		case evCounter:
			fmt.Fprintf(bw, `{"name":%s,"ph":"C","pid":0,"tid":%d,"ts":%s,"args":{%s:%d}}`,
				strconv.Quote(r.tracks[ev.track]+" "+ev.name), ev.track, tsUs(ev.at),
				strconv.Quote(ev.name), ev.val)
		case evStage:
			fmt.Fprintf(bw, `{"name":%s,"ph":"i","s":"t","pid":0,"tid":%d,"ts":%s,"args":{"seq":%d}}`,
				strconv.Quote(StageName(ev.dir, int(ev.stage))), ev.track, tsUs(ev.at), ev.val)
		}
	}
	bw.WriteString("\n]}\n")
	return bw.Flush()
}

// tsUs formats picoseconds as microseconds with full picosecond precision,
// using integer arithmetic only (float formatting would round).
func tsUs(p sim.Picoseconds) string {
	return fmt.Sprintf("%d.%06d", p/sim.Microsecond, p%sim.Microsecond)
}
