package core

import (
	"cmp"
	"context"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"

	"github.com/dsl-repro/hydra/internal/preprocess"
)

// SolveViews runs FormulateAndSolve on every view and returns the
// solutions in the order of views. A view's LP depends on nothing but the
// view, so the views are solved concurrently on GOMAXPROCS workers; the
// solutions, and with them every summary built from them, are the same at
// any worker count.
//
// If then is not nil, the worker that solved view i calls then(i, sol)
// right after, before it takes another view, so that per-view work on
// the solution (the summary's align and merge) runs beside the other
// views' solves instead of after all of them. Calls for different views
// may run concurrently; an error from then fails view i as a solve error
// would.
//
// Views are dispatched largest first (by CC count, ties in input order),
// so the view that bounds the wall time starts at once; dispatch order
// changes nothing else. If views fail, the error returned is the one of
// the first failing view in input order, as a serial loop would report:
// once a view has failed, workers skip every view after it. Cancellation
// is observed before each view; workers take no new view once ctx is
// done, and SolveViews returns ctx's error after the views in flight
// finish.
func SolveViews(ctx context.Context, views []*preprocess.View, opts Options, then func(i int, sol *ViewSolution) error) ([]*ViewSolution, error) {
	sols := make([]*ViewSolution, len(views))
	errs := make([]error, len(views))
	order := make([]int, len(views))
	for i := range order {
		order[i] = i
	}
	slices.SortStableFunc(order, func(a, b int) int { return cmp.Compare(len(views[b].CCs), len(views[a].CCs)) })

	var next atomic.Int64 // position in order of the next view to take
	var firstFailed atomic.Int64
	firstFailed.Store(int64(len(views)))
	work := func() {
		opts := opts
		opts.mem = memories.Get()
		defer memories.Put(opts.mem)
		for ctx.Err() == nil {
			k := int(next.Add(1) - 1)
			if k >= len(order) {
				return
			}
			i := order[k]
			if int64(i) > firstFailed.Load() {
				continue
			}
			sols[i], errs[i] = FormulateAndSolve(views[i], opts)
			if errs[i] == nil && then != nil {
				errs[i] = then(i, sols[i])
			}
			if errs[i] != nil {
				lowerTo(&firstFailed, int64(i))
			}
		}
	}
	var wg sync.WaitGroup
	for w := 1; w < min(runtime.GOMAXPROCS(0), len(views)); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			work()
		}()
	}
	work()
	wg.Wait()

	if err := ctx.Err(); err != nil {
		return nil, err
	}
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return sols, nil
}

// lowerTo sets v to x if x is smaller.
func lowerTo(v *atomic.Int64, x int64) {
	for cur := v.Load(); x < cur; cur = v.Load() {
		if v.CompareAndSwap(cur, x) {
			return
		}
	}
}
