package matgen

import (
	"cmp"
	"context"
	"io"
	"sync/atomic"

	"github.com/dsl-repro/hydra/internal/format"
	"github.com/dsl-repro/hydra/internal/summary"
)

// inFlightHighWater runs fn with testHookInFlight counting the chunks a
// pool worker has taken and their collector has not yet written and
// recycled, and returns the most that were in flight at once. fn must
// not run concurrently with another materialization.
func inFlightHighWater(fn func()) int64 {
	var live, high atomic.Int64
	testHookInFlight = func(delta int) {
		n := live.Add(int64(delta))
		for h := high.Load(); n > h && !high.CompareAndSwap(h, n); h = high.Load() {
		}
	}
	defer func() { testHookInFlight = nil }()
	fn()
	return high.Load()
}

// materializeGrid is Materialize on a chunk grid of grid rows (before
// alignment) instead of the codec's own, so that small test tables
// split into many chunks, shards and codec members.
func materializeGrid(sum *summary.Summary, opts Options, grid int) (*Report, error) {
	f, err := format.ByName(cmp.Or(opts.Format, "heap"))
	if err != nil {
		return nil, err
	}
	comp, err := CompressorFor(opts.Compress)
	if err != nil {
		return nil, err
	}
	return materialize(context.Background(), sum, opts, f, comp, grid)
}

// streamGrid is Stream on a chunk grid of grid rows.
func streamGrid(ctx context.Context, sum *summary.Summary, opts StreamOptions, w io.Writer, grid int) (*StreamReport, error) {
	p, err := planStream(sum, opts, grid)
	if err != nil {
		return nil, err
	}
	return (&StreamPlan{p: p, opts: opts}).Run(ctx, w)
}
