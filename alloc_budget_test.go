//go:build !race

package hydra_test

import (
	"runtime"
	"testing"

	hydra "github.com/dsl-repro/hydra"
)

// regenerateAllocs returns the bytes and objects one warm Regenerate of in
// allocates on one worker, averaged over five calls.
func regenerateAllocs(t *testing.T, in pinnedInput) (bytes, objects float64) {
	t.Helper()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	run := func() {
		if _, err := hydra.Regenerate(in.s, in.w, hydra.Config{}); err != nil {
			t.Fatal(err)
		}
	}
	run()
	const n = 5
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range n {
		run()
	}
	runtime.ReadMemStats(&after)
	return float64(after.TotalAlloc-before.TotalAlloc) / n, float64(after.Mallocs-before.Mallocs) / n
}

// TestRegenerateAllocationBudget pins what one warm Regenerate of each
// summarize input allocates, with about 20 % headroom over what it was
// measured at (go1.24, amd64): the partitioner copies only the block
// dimensions that split, branch and bound decides on native vertices,
// tableaus are built in memory earlier solves left behind, group LPs are
// assembled in reused buffers without row names, and the summary looks
// its keys up through reused buffers and keeps row values in slabs.
// Together the four stay under half of what a pass allocated before
// those changes (44.9 MB, 481 k objects). The race detector's sync.Pool
// drops items at random, so the test is built without it.
func TestRegenerateAllocationBudget(t *testing.T) {
	// Lowered when group LPs and summary keys stopped allocating per row;
	// the budgets before were 3.7/7.5/7.5/5.8 MB and 52/70/70/50 k
	// objects, over 3.09/6.20/6.19/4.83 MB and 43.1/58.0/57.9/41.1 k.
	budget := map[string]struct{ bytes, objects float64 }{
		// measured: 2.32 MB, 28.0 k objects
		"WLs-90": {2.8e6, 33.5e3},
		// measured: 4.77 MB, 42.2 k
		"WLc-55": {5.7e6, 50.5e3},
		// measured: 4.76 MB, 42.1 k
		"WLc-55-x1e11": {5.7e6, 50.5e3},
		// measured: 3.92 MB, 35.7 k
		"JOB-30": {4.7e6, 43e3},
	}
	var bytes, objects float64
	for _, in := range pinnedInputs(t) {
		b, o := regenerateAllocs(t, in)
		bytes += b
		objects += o
		if want := budget[in.name]; b > want.bytes || o > want.objects {
			t.Errorf("%s: %.2f MB in %.1f k objects; budget %.2f MB, %.1f k", in.name, b/1e6, o/1e3, want.bytes/1e6, want.objects/1e3)
		}
	}
	if bytes > 44.9e6/2 || objects > 481e3/2 {
		t.Errorf("a pass allocates %.1f MB in %.0f k objects; want at most half of 44.9 MB and 481 k", bytes/1e6, objects/1e3)
	}
}
