package experiments

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"

	"cronus/internal/metrics"
)

// each runs fn(0) … fn(n-1). Every call is one cell of a figure: it builds
// and runs its own sim.Kernel, shares nothing with the other cells and writes
// its result to an index-addressed slice the caller owns (maps are filled
// after each returns). Cells run on min(n, GOMAXPROCS) goroutines that take
// indices in input order; each returns when all of them have finished, with
// the error of the lowest failing index, and re-raises a cell's panic on the
// caller.
//
// At width 1 it is a plain loop on the calling goroutine that stops at the
// first error — and so it is while metrics.Default records: gauge last-values
// in the process-wide registry depend on the order cells run in, and serial
// keeps every snapshot byte-identical. Tracing needs no such rule: a
// collector belongs to the one kernel it is attached to.
func each(n int, fn func(i int) error) error {
	width := min(n, runtime.GOMAXPROCS(0))
	if width <= 1 || metrics.Default.Enabled() {
		for i := 0; i < n; i++ {
			if err := fn(i); err != nil {
				return err
			}
		}
		return nil
	}
	errs := make([]error, n)
	panics := make([]any, n)
	cell := func(i int) {
		defer func() {
			if v := recover(); v != nil {
				panics[i] = fmt.Sprintf("%v\n\ncell %d:\n%s", v, i, debug.Stack())
			}
		}()
		errs[i] = fn(i)
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(width)
	for w := 0; w < width; w++ {
		go func() {
			defer wg.Done()
			for i := int(next.Add(1)) - 1; i < n; i = int(next.Add(1)) - 1 {
				cell(i)
			}
		}()
	}
	wg.Wait()
	for i := range errs {
		if panics[i] != nil {
			panic(panics[i])
		}
		if errs[i] != nil {
			return errs[i]
		}
	}
	return nil
}
