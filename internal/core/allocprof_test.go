package core

import (
	"fmt"
	"runtime"
	"sort"
	"strings"
	"testing"
)

// moduleAllocs runs fn with every allocation profiled and returns what was
// allocated from a stack with a frame in this module (repro/), with one line
// per such stack for failure messages. Allocations from other stacks, such
// as the Go runtime's background scavenger growing a timer heap, are logged
// with their stacks and not counted: the process-wide MemStats counters
// cannot tell them from the simulator's.
//
// runtime.MemProfile publishes a profile at collections, so each read
// follows a runtime.GC. The helper's own reads allocate while every
// allocation is profiled; they are told apart by memProfile's frame.
func moduleAllocs(t *testing.T, fn func()) (bytes, objects int64, stacks []string) {
	t.Helper()
	defer func(rate int) { runtime.MemProfileRate = rate }(runtime.MemProfileRate)
	runtime.MemProfileRate = 1
	runtime.GC()
	before := memProfile()
	fn()
	runtime.GC()
	for stk, after := range memProfile() {
		d := after
		if b, ok := before[stk]; ok {
			d.bytes -= b.bytes
			d.objects -= b.objects
		}
		if d.objects <= 0 {
			continue
		}
		line, ours, read := describeStack(stk)
		if read {
			continue
		}
		line = fmt.Sprintf("%d B in %d objects at %s", d.bytes, d.objects, line)
		if !ours {
			t.Logf("not counted (no frame in repro/): %s", line)
			continue
		}
		bytes += d.bytes
		objects += d.objects
		stacks = append(stacks, line)
	}
	sort.Strings(stacks)
	return bytes, objects, stacks
}

type allocCount struct{ bytes, objects int64 }

// memProfile returns the allocations so far by stack.
func memProfile() map[[32]uintptr]allocCount {
	var recs []runtime.MemProfileRecord
	n, _ := runtime.MemProfile(nil, true)
	for {
		recs = make([]runtime.MemProfileRecord, n+64)
		var ok bool
		if n, ok = runtime.MemProfile(recs, true); ok {
			break
		}
	}
	m := make(map[[32]uintptr]allocCount, n)
	for _, r := range recs[:n] {
		c := m[r.Stack0]
		c.bytes += r.AllocBytes
		c.objects += r.AllocObjects
		m[r.Stack0] = c
	}
	return m
}

// describeStack renders a stack innermost first and reports whether it has
// a frame in this module and whether it is memProfile's own.
func describeStack(stk [32]uintptr) (line string, ours, read bool) {
	var pcs []uintptr
	for _, pc := range stk {
		if pc == 0 {
			break
		}
		pcs = append(pcs, pc)
	}
	var names []string
	frames := runtime.CallersFrames(pcs)
	for {
		f, more := frames.Next()
		names = append(names, f.Function)
		ours = ours || strings.HasPrefix(f.Function, "repro/")
		read = read || f.Function == "repro/internal/core.memProfile"
		if !more {
			break
		}
	}
	return strings.Join(names, " < "), ours, read
}
