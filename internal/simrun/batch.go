package simrun

import (
	"context"
	"runtime"
	"sync"
	"time"
)

// BatchResult pairs one scenario with its outcome. Err is non-nil when the
// run failed, was cancelled (context.Canceled), or hit the per-scenario
// timeout (context.DeadlineExceeded); Result then holds whatever partial
// progress was made.
type BatchResult struct {
	Scenario *Scenario
	Result   Result
	Err      error
}

// BatchOpts tunes Batch.
type BatchOpts struct {
	// Workers is the number of host goroutines running scenarios
	// concurrently; <=0 selects GOMAXPROCS. Simulated results are
	// deterministic and independent of Workers — only wall-clock
	// measurements (Result.Wall, MIPS) vary under host contention.
	Workers int
	// Timeout bounds each scenario's host run time (0 = none).
	Timeout time.Duration
	// Progress, when non-nil, is called after each scenario completes
	// with the completion count; calls are serialized but arrive in
	// completion order, not input order.
	Progress func(done, total int, r BatchResult)
}

// Each calls do(i) for every i in [0, n) on at most workers goroutines
// (<=0 selects GOMAXPROCS), handing the indices out in order, and returns
// once every call has. It is the one bounded fan-out of in-process runs:
// Batch and cmd/sweep's executor write result i to slot i, so their output
// keeps input order whatever the worker count.
func Each(n, workers int, do func(i int)) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	next := make(chan int)
	var wg sync.WaitGroup
	for range min(workers, n) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				do(i)
			}
		}()
	}
	for i := range n {
		next <- i
	}
	close(next)
	wg.Wait()
}

// Batch runs the scenarios across a worker pool and returns one result per
// scenario, in input order. Cancelling ctx interrupts in-flight runs and
// marks every unfinished scenario with ctx's error.
func Batch(ctx context.Context, scenarios []*Scenario, opts BatchOpts) []BatchResult {
	results := make([]BatchResult, len(scenarios))
	// Queue-occupancy gauges: pending drops as workers pick scenarios
	// up, running tracks in-flight simulations. Both return to zero
	// when the batch ends.
	obsMetrics()
	mBatchPending.Add(int64(len(scenarios)))
	var (
		mu   sync.Mutex
		done int
	)
	Each(len(scenarios), opts.Workers, func(idx int) {
		mBatchPending.Add(-1)
		mBatchRunning.Add(1)
		results[idx] = runOne(ctx, scenarios[idx], opts.Timeout)
		mBatchRunning.Add(-1)
		if opts.Progress != nil {
			mu.Lock()
			done++
			opts.Progress(done, len(scenarios), results[idx])
			mu.Unlock()
		}
	})
	return results
}

// runOne executes one scenario under the batch context and optional
// per-scenario timeout. Once the batch context is cancelled, in-flight
// runs are interrupted at the driver's next poll and every remaining
// scenario returns the cancellation error without simulating. A panic
// anywhere under the run is isolated to this one result (engines have
// their own boundary in Run; this one also covers the batch plumbing),
// so one poisoned scenario cannot sink the rest of the batch.
func runOne(ctx context.Context, s *Scenario, timeout time.Duration) (br BatchResult) {
	defer func() {
		if r := recover(); r != nil {
			obsMetrics()
			mEnginePanics.Inc()
			br = BatchResult{Scenario: s, Err: newPanicError(s.EngineName(), s, r)}
		}
	}()
	if err := ctx.Err(); err != nil {
		return BatchResult{Scenario: s, Err: err}
	}
	if timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, timeout)
		defer cancel()
	}
	res, err := s.Run(ctx)
	return BatchResult{Scenario: s, Result: res, Err: err}
}
