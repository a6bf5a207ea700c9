//go:build !race

package hydra_test

import (
	"runtime"
	"testing"

	hydra "github.com/dsl-repro/hydra"
)

// regenerateAllocs returns the bytes and objects one warm Regenerate of in
// allocates on one worker, averaged over five calls. With collect, two
// garbage collections run before each call: memory a solve keeps for
// the next must outlive them.
func regenerateAllocs(t *testing.T, in pinnedInput, collect bool) (bytes, objects float64) {
	t.Helper()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	run := func() {
		if _, err := hydra.Regenerate(in.s, in.w, hydra.Config{}); err != nil {
			t.Fatal(err)
		}
	}
	run()
	const n = 5
	var before, after, gcBefore, gcAfter runtime.MemStats
	var gcBytes, gcObjects uint64 // what the collections themselves allocate
	runtime.ReadMemStats(&before)
	for range n {
		if collect {
			runtime.ReadMemStats(&gcBefore)
			runtime.GC()
			runtime.GC()
			runtime.ReadMemStats(&gcAfter)
			gcBytes += gcAfter.TotalAlloc - gcBefore.TotalAlloc
			gcObjects += gcAfter.Mallocs - gcBefore.Mallocs
		}
		run()
	}
	runtime.ReadMemStats(&after)
	return float64(after.TotalAlloc-before.TotalAlloc-gcBytes) / n, float64(after.Mallocs-before.Mallocs-gcObjects) / n
}

// TestRegenerateAllocationBudget pins what one warm Regenerate of each
// summarize input allocates, with about 20 % headroom over what it was
// measured at (go1.24, amd64): the partitioner keeps its blocks in slabs
// a run takes from a free list and returns regions that carry only their
// label and corner, branch and bound decides on native vertices, tableaus
// and column classes are built in memory earlier solves left behind,
// group LPs are assembled in reused buffers without row names, and the
// summary looks its keys up through reused buffers and keeps row values
// in slabs, and chordalization reuses one neighbor list. A pass over the
// four allocates at most 7.8 MB in 54 k objects (51 k objects while
// chordalization allocated per elimination step, 8.5 MB in 52.7 k while
// regions still carried their blocks, 15.8 MB in 148 k before the
// partitioner used slabs and solve memory outlived a collection), and
// about as much when garbage collections run between
// the calls: solve and partition memory is kept in free lists a
// collection does not empty. The race detector's sync.Pool drops items
// at random, so the test is built without it.
func TestRegenerateAllocationBudget(t *testing.T) {
	// Lowered when chordalization stopped allocating per elimination
	// step; the budgets before were 2.0/2.3/2.3/1.4 MB and
	// 20.0/17.1/17.1/6.9 k objects, over 1.67/1.91/1.90/1.14 MB and
	// 16.7/14.3/14.2/5.8 k. Lowered before that when regions stopped
	// carrying their blocks, from 2.2/2.9/2.9/2.2 MB and
	// 20.6/17.8/17.8/7.1 k.
	budget := map[string]struct{ bytes, objects float64 }{
		// measured: 1.66 MB, 15.3 k objects
		"WLs-90": {2.0e6, 18.4e3},
		// measured: 1.87 MB, 12.2 k
		"WLc-55": {2.25e6, 14.6e3},
		// measured: 1.86 MB, 12.1 k
		"WLc-55-x1e11": {2.25e6, 14.5e3},
		// measured: 1.14 MB, 5.6 k
		"JOB-30": {1.37e6, 6.7e3},
	}
	var bytes, objects, gcBytes, gcObjects float64
	for _, in := range pinnedInputs(t) {
		b, o := regenerateAllocs(t, in, false)
		bytes += b
		objects += o
		if want := budget[in.name]; b > want.bytes || o > want.objects {
			t.Errorf("%s: %.2f MB in %.1f k objects; budget %.2f MB, %.1f k", in.name, b/1e6, o/1e3, want.bytes/1e6, want.objects/1e3)
		}
		b, o = regenerateAllocs(t, in, true)
		gcBytes += b
		gcObjects += o
	}
	if bytes > 7.8e6 || objects > 54e3 {
		t.Errorf("a pass allocates %.1f MB in %.0f k objects; want at most 7.8 MB and 54 k", bytes/1e6, objects/1e3)
	}
	if gcBytes > 1.05*bytes || gcObjects > 1.05*objects {
		t.Errorf("with two collections before each call a pass allocates %.2f MB in %.1f k objects, over 5 %% more than %.2f MB in %.1f k without",
			gcBytes/1e6, gcObjects/1e3, bytes/1e6, objects/1e3)
	}
}
