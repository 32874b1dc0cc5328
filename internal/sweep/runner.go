package sweep

import (
	"context"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"time"
)

// RunFunc executes one job. Implementations must honor ctx: when it is
// canceled they should stop the simulation and return ctx.Err() (the NIC
// simulator's engine exposes Stop for exactly this; see
// experiments.Simulate). A RunFunc may panic — the runner records the panic
// as that job's failure without killing the pool.
type RunFunc func(ctx context.Context, job Job) (Outcome, error)

// RunnerStats counts what a sweep's results cannot show on their own.
// Fresh, cached and failed points are visible in the returned []Result;
// a failed store write is not, since the result is still reported.
type RunnerStats struct {
	// StoreErrors is the number of results whose persistence failed. A store
	// error degrades resumability, not correctness — the result is still
	// reported — but a nonzero count means a resume would re-simulate.
	StoreErrors int64
}

// Runner executes sweeps over a worker pool.
type Runner struct {
	// Run executes one job. Required.
	Run RunFunc

	// Workers is the pool size; <= 0 means GOMAXPROCS.
	Workers int

	// Timeout bounds each job's execution; 0 means no per-job timeout. A
	// diverging simulation fails its own job (deadline exceeded), not the
	// sweep.
	Timeout time.Duration

	// Store, when non-nil, serves previously completed jobs by hash and
	// persists fresh successes, making sweeps resumable across processes.
	Store *Store

	// OnResult, when non-nil, observes every result as it settles (cache
	// hits included). Calls are serialized.
	OnResult func(Result)

	mu    sync.Mutex
	memo  map[string]Result //nic:guardedby mu — in-process cache of successes, by hash
	stats RunnerStats       //nic:guardedby mu
}

// Stats returns a snapshot of the runner's counters. Updates are
// serialized the same way OnResult calls are, so a snapshot taken after
// Sweep returns is complete.
func (r *Runner) Stats() RunnerStats {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.stats
}

// Sweep executes all jobs and returns results aligned with the input order.
// Jobs sharing a spec hash are simulated once. Failed jobs (error, panic,
// timeout) are reported in their Result and do not stop the sweep. When ctx
// is canceled, in-flight jobs are stopped, unstarted jobs are marked
// canceled, and the returned error is ctx's error; everything already
// completed is in the results (and the store, if one is attached), so a
// re-run resumes from where the sweep stopped.
func (r *Runner) Sweep(ctx context.Context, jobs []Job) ([]Result, error) {
	if r.Run == nil {
		return nil, fmt.Errorf("sweep: Runner.Run is nil")
	}
	results := make([]Result, len(jobs))
	filled := make([]bool, len(jobs))

	// Group duplicate specs so each unique hash simulates once.
	idxByHash := map[string][]int{}
	var order []string
	for i, j := range jobs {
		h := j.Spec.Hash()
		if _, ok := idxByHash[h]; !ok {
			order = append(order, h)
		}
		idxByHash[h] = append(idxByHash[h], i)
	}

	settle := func(res Result) {
		r.mu.Lock()
		if res.OK() {
			if r.memo == nil {
				r.memo = map[string]Result{}
			}
			r.memo[res.Hash] = res
			if r.Store != nil && !res.Cached {
				if err := r.Store.Put(res); err != nil {
					// Persistence failure degrades resumability, not
					// correctness; it is surfaced through StoreErrors.
					r.stats.StoreErrors++
				}
			}
		}
		for _, i := range idxByHash[res.Hash] {
			rr := res
			rr.ID = jobs[i].ID
			results[i] = rr
			filled[i] = true
			if r.OnResult != nil {
				r.OnResult(rr)
			}
		}
		r.mu.Unlock()
	}

	// Serve cached hashes; collect the rest.
	var pending []string
	for _, h := range order {
		if res, ok := r.cached(h); ok {
			res.Cached = true
			settle(res)
			continue
		}
		pending = append(pending, h)
	}

	workers := r.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(pending) {
		workers = len(pending)
	}

	ch := make(chan string)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for h := range ch {
				settle(execute(ctx, r.Run, jobs[idxByHash[h][0]], h, r.Timeout))
			}
		}()
	}
dispatch:
	for _, h := range pending {
		select {
		case ch <- h:
		case <-ctx.Done():
			break dispatch
		}
	}
	close(ch)
	wg.Wait()

	// Anything not settled was never dispatched.
	for i := range results {
		if !filled[i] {
			results[i] = Result{
				ID:   jobs[i].ID,
				Hash: jobs[i].Spec.Hash(),
				Spec: jobs[i].Spec,
				Err:  "canceled before start",
			}
		}
	}
	return results, ctx.Err()
}

// cached consults the in-process memo, then the store.
func (r *Runner) cached(hash string) (Result, bool) {
	r.mu.Lock()
	res, ok := r.memo[hash]
	r.mu.Unlock()
	if ok {
		return res, true
	}
	if r.Store != nil {
		if res, ok := r.Store.Get(hash); ok && res.OK() {
			return res, true
		}
	}
	return Result{}, false
}

// execute runs a single job, whose spec hashes to hash, with a per-job
// timeout and panic isolation: a panicking run fails its own Result (stack
// attached) instead of crashing the pool.
func execute(ctx context.Context, run RunFunc, job Job, hash string, timeout time.Duration) (res Result) {
	res = Result{ID: job.ID, Hash: hash, Spec: job.Spec}
	start := time.Now() //nic:wallclock ElapsedSec reports real job duration
	defer func() {
		res.ElapsedSec = time.Since(start).Seconds() //nic:wallclock
		if p := recover(); p != nil {
			res.Report, res.Aux = nil, nil
			res.Err = fmt.Sprintf("panic: %v\n%s", p, debug.Stack())
		}
	}()
	jctx := ctx
	if timeout > 0 {
		var cancel context.CancelFunc
		jctx, cancel = context.WithTimeout(ctx, timeout)
		defer cancel()
	}
	out, err := run(jctx, job)
	if err != nil {
		res.Err = err.Error()
		return res
	}
	res.Report, res.Aux = out.Report, out.Aux
	return res
}
