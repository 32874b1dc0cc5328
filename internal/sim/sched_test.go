package sim

import (
	"fmt"
	"strings"
	"testing"
)

// job is a test Sleeper shaped like the controller's SDRAM: submitted jobs
// queue, each runs for a fixed number of cycles, and an idle job ticker
// sleeps until a submission wakes it. Ticks that start or finish a job are
// logged with the instant, the cycle and the replayed bookkeeping, so a
// sleeping run and a fully ticked run can be compared tick for tick.
type job struct {
	name   string
	e      *Engine
	log    *[]string
	lens   []int // job lengths, used round-robin
	nlen   int
	queue  int
	remain int

	// Bookkeeping a skipped tick must replay.
	now, total, busy uint64

	onDone func()
	wake   func()
}

func (j *job) Tick(cycle uint64) {
	j.now = cycle
	j.total++
	if j.remain == 0 && j.queue > 0 {
		j.queue--
		j.remain = j.lens[j.nlen%len(j.lens)]
		j.nlen++
		j.logf("start")
	}
	if j.remain == 0 {
		return
	}
	j.busy++
	j.remain--
	if j.remain == 0 {
		j.logf("done")
		if j.onDone != nil {
			j.onDone()
		}
	}
}

func (j *job) Sleep() uint64 {
	switch {
	case j.remain > 0:
		return uint64(j.remain - 1)
	case j.queue > 0:
		return 0
	}
	return UntilWoken
}

func (j *job) Skip(n uint64) {
	j.now += n
	j.total += n
	if j.remain > 0 {
		j.busy += n
		j.remain -= int(n)
	}
}

func (j *job) SetWake(wake func()) { j.wake = wake }

// submit queues a job, waking the ticker first so the logged stamp reads
// the replayed "now", as SDRAM.Enqueue does.
func (j *job) submit() {
	if j.wake != nil {
		j.wake()
	}
	j.queue++
	j.logf("submit")
}

func (j *job) logf(what string) {
	*j.log = append(*j.log, fmt.Sprintf("%s %s @%d cycle=%d total=%d busy=%d",
		j.name, what, j.e.Now(), j.now, j.total, j.busy))
}

// diffRig is one engine of a differential pair. With sleep false every job
// is registered behind a plain TickFunc, which hides Sleeper, so the engine
// ticks every edge.
type diffRig struct {
	e     *Engine
	sleep bool
	log   []string
	jobs  []*job
	doms  []*Domain
}

func newDiffRig(sleep bool) *diffRig { return &diffRig{e: NewEngine(), sleep: sleep} }

func (r *diffRig) domain(name string, hz float64) *Domain {
	d := NewDomain(name, hz)
	r.e.AddDomain(d)
	r.doms = append(r.doms, d)
	return d
}

func (r *diffRig) job(d *Domain, lens ...int) *job {
	j := &job{name: fmt.Sprintf("%s/%d", d.Name(), len(r.jobs)), e: r.e, log: &r.log, lens: lens}
	r.jobs = append(r.jobs, j)
	if r.sleep {
		d.Add(j)
	} else {
		d.Add(TickFunc(j.Tick))
	}
	return j
}

// producer adds a plain ticker to d that submits to j on a fixed
// pseudo-random subset of its cycles, about one in every.
func (r *diffRig) producer(d *Domain, j *job, every uint64) {
	d.Add(TickFunc(func(cycle uint64) {
		if mix(cycle)%every == 0 {
			j.submit()
		}
	}))
}

func mix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ x>>30) * 0xbf58476d1ce4e5b9
	x = (x ^ x>>27) * 0x94d049bb133111eb
	return x ^ x>>31
}

// state renders everything a report could read after a run returns.
func (r *diffRig) state() string {
	var b strings.Builder
	fmt.Fprintf(&b, "now=%d", r.e.Now())
	for _, d := range r.doms {
		fmt.Fprintf(&b, " %s.cycles=%d", d.Name(), d.Cycles())
	}
	for _, j := range r.jobs {
		fmt.Fprintf(&b, " %s{now=%d total=%d busy=%d remain=%d queue=%d}",
			j.name, j.now, j.total, j.busy, j.remain, j.queue)
	}
	return b.String()
}

// runDiff builds a sleeping and a fully ticked rig, drives both through the
// same back-to-back RunFor calls, and requires identical tick logs and
// identical state after every call, and fewer executed ticks in the sleeping
// rig. With domainSleeps, some domain holds only sleepers and must sleep
// whole, so the sleeping rig must also take fewer engine steps. It returns
// both rigs.
func runDiff(t *testing.T, build func(*diffRig), domainSleeps bool, chunks ...Picoseconds) (sleeping, ticked *diffRig) {
	t.Helper()
	sleeping, ticked = newDiffRig(true), newDiffRig(false)
	build(sleeping)
	build(ticked)
	for i, c := range chunks {
		sleeping.e.RunFor(c)
		ticked.e.RunFor(c)
		if s, k := sleeping.state(), ticked.state(); s != k {
			t.Fatalf("after RunFor #%d (%d ps):\nsleeping: %s\nticked:   %s", i, c, s, k)
		}
	}
	compareLogs(t, sleeping.log, ticked.log)
	if len(ticked.log) == 0 {
		t.Fatal("no ticks logged")
	}
	if s, k := sleeping.ticks(), ticked.ticks(); s >= k {
		t.Errorf("sleeping run executed %d ticks, ticked %d: nothing slept", s, k)
	}
	if domainSleeps && sleeping.e.Steps() >= ticked.e.Steps() {
		t.Errorf("sleeping run took %d steps, ticked %d: no domain slept", sleeping.e.Steps(), ticked.e.Steps())
	}
	return sleeping, ticked
}

// ticks sums the executed ticks of every ticker in the rig.
func (r *diffRig) ticks() uint64 {
	var n uint64
	for _, d := range r.doms {
		for i := range d.slots {
			n += d.TickerTicks(i)
		}
	}
	return n
}

func compareLogs(t *testing.T, sleeping, ticked []string) {
	t.Helper()
	for i := 0; i < len(sleeping) && i < len(ticked); i++ {
		if sleeping[i] != ticked[i] {
			t.Fatalf("log entry %d differs:\nsleeping: %s\nticked:   %s", i, sleeping[i], ticked[i])
		}
	}
	if len(sleeping) != len(ticked) {
		t.Fatalf("log lengths differ: sleeping %d, ticked %d", len(sleeping), len(ticked))
	}
}

// TestSleepersMatchTickedRun is the engine's differential test: sleeping
// tickers must produce the tick log and end state of the same tickers
// ticked on every edge.
func TestSleepersMatchTickedRun(t *testing.T) {
	long := []Picoseconds{3 * Microsecond, 7 * Microsecond}
	for _, tc := range []struct {
		name   string
		build  func(*diffRig)
		chunks []Picoseconds
		// shared is set where every sleeper shares its domain with a
		// ticker that never sleeps: the sleepers save ticks, not steps.
		shared bool
	}{
		// The 5000 ps waker shares every other edge with the 2000 ps sleeper;
		// registered first, its wake at a shared instant precedes the
		// sleeper's edge there, so the sleeper ticks at that very instant.
		{"earlier-waker-coincident", func(r *diffRig) {
			p := r.domain("cpu", 200e6)
			s := r.domain("sdram", 500e6)
			r.producer(p, r.job(s, 7, 1, 12), 3)
		}, long, false},
		// Registered after the sleeper, the waker comes too late for the
		// sleeper's edge at the shared instant: the next edge is the first.
		{"later-waker-coincident", func(r *diffRig) {
			s := r.domain("sdram", 500e6)
			p := r.domain("cpu", 200e6)
			r.producer(p, r.job(s, 7, 1, 12), 3)
		}, long, false},
		// A sleeper's completion wakes a sleeper in another domain, in both
		// registration directions.
		{"sleeper-wakes-sleeper", func(r *diffRig) {
			p := r.domain("cpu", 200e6)
			a := r.domain("sdram", 500e6)
			b := r.domain("mac", 156.25e6)
			ja := r.job(a, 9, 30)
			jb := r.job(b, 4, 2)
			jc := r.job(a, 3)
			ja.onDone = jb.submit
			jb.onDone = jc.submit
			r.producer(p, ja, 4)
		}, long, false},
		// Two sleepers share a domain: one counting down, one idle until
		// woken. Waking the idle one must cut the domain's sleep short.
		{"shared-domain", func(r *diffRig) {
			p := r.domain("cpu", 200e6)
			m := r.domain("mac", 156.25e6)
			q := r.domain("host", 133e6)
			r.producer(p, r.job(m, 40, 25), 11)
			r.producer(q, r.job(m, 3), 13)
		}, long, false},
		// Event callbacks wake the sleeper, on its edges and between them,
		// with the event domain registered before and after it.
		{"event-waker", func(r *diffRig) {
			early := NewEventDomain("ev-early")
			r.e.AddDomain(early)
			s := r.domain("sdram", 500e6)
			late := NewEventDomain("ev-late")
			r.e.AddDomain(late)
			j := r.job(s, 5, 17)
			for i := Picoseconds(1); i <= 200; i++ {
				early.Schedule(i*32*Nanosecond, j.submit)  // on a 2000 ps edge
				late.Schedule(i*38*Nanosecond, j.submit)   // on a 2000 ps edge
				late.Schedule(i*41*Nanosecond+7, j.submit) // between edges
				early.Schedule(i*43*Nanosecond+999, j.submit)
			}
		}, long, false},
		// The controller's 7519 ps host clock against 2000 ps: a host-clock
		// producer wakes a 2000 ps sleeper, whose completions wake a sleeper
		// on a second 7519 ps clock.
		{"incommensurate", func(r *diffRig) {
			fast := r.domain("sdram", 500e6)
			prod := r.domain("host", 133e6)
			slow := r.domain("host2", 133e6)
			if slow.Period() != 7519 {
				t.Fatalf("host period = %d, want 7519", slow.Period())
			}
			jf := r.job(fast, 6, 19)
			jf.onDone = r.job(slow, 2, 5).submit
			r.producer(prod, jf, 5)
		}, long, false},
		// A sleeper shares its domain with the tickers that wake it: one
		// registered after it (its wake comes too late for this edge) and
		// one before it (its wake makes the sleeper tick at this edge). The
		// domain steps every edge; the sleepers still skip theirs.
		{"shared-with-wakers", func(r *diffRig) {
			p := r.domain("cpu", 200e6)
			early := r.job(p, 40, 3)
			r.producer(p, early, 4)
			late := r.job(p, 5, 12)
			r.producer(p, late, 6)
		}, long, true},
		// Long countdowns, cut short and joined by shorter ones, in one
		// domain and across domains.
		{"long-countdowns", func(r *diffRig) {
			p := r.domain("cpu", 200e6)
			s := r.domain("sdram", 500e6)
			a := r.job(s, 200, 65, 3, 130)
			b := r.job(s, 64, 1, 63, 300)
			a.onDone = b.submit
			r.producer(p, a, 23)
			r.producer(p, r.job(p, 90, 2, 70), 31)
		}, long, false},
		// Event callbacks wake countdowns of many lengths while their
		// domain sleeps, on and between its edges.
		{"wake-countdowns", func(r *diffRig) {
			s := r.domain("sdram", 500e6)
			ev := NewEventDomain("ev")
			r.e.AddDomain(ev)
			j := r.job(s, 14, 15, 16, 17, 18, 31, 32, 33, 64)
			for i := Picoseconds(1); i <= 300; i++ {
				ev.Schedule(i*(i%7+1)*23*Nanosecond+i%5*1000, j.submit)
			}
		}, long, false},
		// Tickers past the first 64 of a domain tick every edge, after the
		// sleepers, which still sleep.
		{"past-64-tickers", func(r *diffRig) {
			p := r.domain("cpu", 200e6)
			q := r.domain("host", 133e6)
			var js []*job
			for i := 0; i < 66; i++ {
				js = append(js, r.job(p, 3+i%17, 40+i%5))
			}
			for i, j := range js {
				if i%9 == 0 {
					r.producer(q, j, 7+uint64(i))
				}
			}
			r.producer(p, js[65], 5)
		}, long, true},
		// Tickers past the first 64 wake sleepers among the first 64 of
		// their own domain, directly and from a completion, so each wake
		// lands after the domain's pass over its sleepers.
		{"past-64-wake-earlier", func(r *diffRig) {
			p := r.domain("cpu", 200e6)
			var js []*job
			for i := 0; i < 65; i++ {
				js = append(js, r.job(p, 2+i%13, 20+i%7))
			}
			js[64].onDone = js[5].submit
			r.producer(p, js[0], 9)
			r.producer(p, js[63], 7)
			r.producer(p, js[64], 11)
		}, long, true},
		// Deadlines that land on edges only the sleeping 2000 ps domain has
		// (4000 ps is no 5000 ps edge), off every edge, and on shared edges,
		// run back to back.
		{"deadline-landing", func(r *diffRig) {
			p := r.domain("cpu", 200e6)
			s := r.domain("sdram", 500e6)
			r.producer(p, r.job(s, 50, 3), 17)
		}, []Picoseconds{4000, 1, 1999, 2000, 2001, 6000, 8000, 12345, 7519,
			10000, 4 * Microsecond, 2000, 2000, 3000, Microsecond + 2000}, false},
	} {
		t.Run(tc.name, func(t *testing.T) { runDiff(t, tc.build, !tc.shared, tc.chunks...) })
	}
}

// TestSleeperRunUntilMatchesTickedRun: RunUntil stops on the same step and
// leaves the same state with sleeping tickers, whether the predicate or the
// time limit ends it.
func TestSleeperRunUntilMatchesTickedRun(t *testing.T) {
	build := func(r *diffRig) {
		p := r.domain("cpu", 200e6)
		s := r.domain("sdram", 500e6)
		r.producer(p, r.job(s, 20, 8), 9)
	}
	var states [2][]string
	for i, sleep := range []bool{true, false} {
		r := newDiffRig(sleep)
		build(r)
		j := r.jobs[0]
		ok := r.e.RunUntil(Millisecond, func() bool { return j.nlen >= 25 })
		states[i] = append(states[i], fmt.Sprint(ok), r.state())
		ok = r.e.RunUntil(2*Microsecond+1000, func() bool { return false })
		states[i] = append(states[i], fmt.Sprint(ok), r.state())
	}
	compareLogs(t, states[0], states[1])
	if states[0][0] != "true" || states[0][2] != "false" {
		t.Errorf("RunUntil results %v, want [true … false …]", states[0])
	}
}

func TestSleepingDomainCountsOnlyExecutedTicks(t *testing.T) {
	r := newDiffRig(true)
	s := r.domain("sdram", 500e6)
	j := r.job(s, 10)
	r.e.ProfileTicks(true)
	r.e.RunFor(Microsecond) // 500 edges; one tick, then asleep until woken
	if got := r.e.TickCosts()[0].Ticks; got != 1 {
		t.Errorf("executed ticks = %d, want 1", got)
	}
	if s.Cycles() != 500 || j.total != 500 {
		t.Errorf("cycles = %d, job total = %d, want 500 each after settling", s.Cycles(), j.total)
	}
}

func TestEventHeapSameInstantFiresInScheduleOrder(t *testing.T) {
	ev := NewEventDomain("ev")
	clk := NewDomain("clk", 1e9)
	clk.Add(TickFunc(func(uint64) {}))
	e := NewEngine(clk, ev)
	var got []int
	// Schedule out of time order, with ties: the heap must fire time-ordered,
	// and same-instant events in schedule (seq) order.
	ev.Schedule(5000, func() { got = append(got, 2) })
	ev.Schedule(3000, func() { got = append(got, 0) })
	ev.Schedule(5000, func() { got = append(got, 3) })
	ev.Schedule(3000, func() { got = append(got, 1) })
	ev.Schedule(5000, func() { got = append(got, 4) })
	e.RunFor(10 * Nanosecond)
	if len(got) != 5 {
		t.Fatalf("fired %d events, want 5", len(got))
	}
	for i, v := range got {
		if v != i {
			t.Fatalf("fire order %v, want [0 1 2 3 4]", got)
		}
	}
}

func TestEventHeapInterleavedScheduleAndFire(t *testing.T) {
	// Stress the heap with a pattern that forces sift-up and sift-down:
	// each fired event schedules two more until a budget runs out, with
	// deliberately colliding instants.
	ev := NewEventDomain("ev")
	clk := NewDomain("clk", 1e9)
	clk.Add(TickFunc(func(uint64) {}))
	e := NewEngine(clk, ev)
	var fired []Picoseconds
	budget := 50
	var spawn func(at Picoseconds)
	spawn = func(at Picoseconds) {
		ev.Schedule(at, func() {
			fired = append(fired, e.Now())
			if budget > 0 {
				budget--
				spawn(at + 1500)
				spawn(at + 1500) // same instant: seq order
			}
		})
	}
	spawn(1000)
	spawn(2500)
	e.RunFor(Microsecond)
	if len(fired) < 50 {
		t.Fatalf("fired %d events, want >= 50", len(fired))
	}
	for i := 1; i < len(fired); i++ {
		if fired[i] < fired[i-1] {
			t.Fatalf("event fired out of time order at %d: %d after %d", i, fired[i], fired[i-1])
		}
	}
}

func TestRunForDeadlineOverflowClamps(t *testing.T) {
	d := NewDomain("clk", 1e9) // 1000 ps
	ticks := 0
	d.Add(TickFunc(func(uint64) {
		ticks++
		if ticks >= 10 {
			// Without the clamp, now+dur wraps past zero and the loop exits
			// immediately with no ticks at all; with it the run proceeds until
			// Stop.
			d.eng.Stop()
		}
	}))
	e := NewEngine(d)
	e.RunFor(5 * Nanosecond) // advance now so the overflow is strict
	before := ticks
	e.RunFor(^Picoseconds(0)) // e.now + dur overflows
	if ticks <= before {
		t.Fatalf("RunFor with overflowing duration ran no steps (ticks %d -> %d)", before, ticks)
	}
}

func TestRunUntilDeadlineOverflowClamps(t *testing.T) {
	d := NewDomain("clk", 1e9)
	ticks := 0
	d.Add(TickFunc(func(uint64) { ticks++ }))
	e := NewEngine(d)
	e.RunFor(5 * Nanosecond)
	before := ticks
	ok := e.RunUntil(^Picoseconds(0), func() bool { return ticks >= before+10 })
	if !ok || ticks != before+10 {
		t.Fatalf("RunUntil with overflowing limit: ok=%v ticks %d -> %d, want %d",
			ok, before, ticks, before+10)
	}
}

// countdown is a self-sustaining Sleeper that is busy forever in jobs of
// period cycles, like an SDRAM streaming back-to-back bursts.
type countdown struct {
	period, remain int
	total          uint64
}

func (c *countdown) Tick(uint64) {
	c.total++
	if c.remain == 0 {
		c.remain = c.period
	}
	c.remain--
}
func (c *countdown) Sleep() uint64 {
	if c.remain == 0 {
		return 0
	}
	return uint64(c.remain - 1)
}
func (c *countdown) Skip(n uint64)  { c.total += n; c.remain -= int(n) }
func (c *countdown) SetWake(func()) {}

// benchDomains is the controller's four-clock-domain shape. With sleepers,
// the sdram and mac domains run countdown tickers (a 24-cycle burst and a
// 190-cycle frame); otherwise every domain has one no-op ticker.
func benchDomains(sleepers bool) *Engine {
	cpu := NewDomain("cpu", 166e6)
	sdram := NewDomain("sdram", 500e6)
	mac := NewDomain("mac", 156.25e6)
	host := NewDomain("host", 133e6)
	noop := TickFunc(func(uint64) {})
	cpu.Add(noop)
	host.Add(noop)
	if sleepers {
		sdram.Add(&countdown{period: 24})
		mac.Add(&countdown{period: 190})
	} else {
		sdram.Add(noop)
		mac.Add(noop)
	}
	return NewEngine(cpu, sdram, mac, host)
}

func benchmarkStep(b *testing.B, sleepers bool) {
	e := benchDomains(sleepers)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Step()
	}
	b.ReportMetric(float64(e.Now())/float64(Nanosecond)/float64(b.N), "sim-ns/step")
}

// BenchmarkStep times one engine step on the four-domain shape, every
// domain ticking every edge.
func BenchmarkStep(b *testing.B) { benchmarkStep(b, false) }

// BenchmarkStepSleeping is BenchmarkStep with countdown sleepers in the
// sdram and mac domains: fewer, slightly dearer steps per simulated ns.
func BenchmarkStepSleeping(b *testing.B) { benchmarkStep(b, true) }
