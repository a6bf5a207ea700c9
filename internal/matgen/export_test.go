package matgen

import "sync/atomic"

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
