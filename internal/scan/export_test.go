package scan

import "github.com/dsl-repro/hydra/internal/tuplegen"

// HandBatch makes sc fill b from its first Next on, as if the pool had
// handed it b. Which batch the pool returns is up to the runtime (under
// the race detector it drops a share of what is put back), and a test of
// what one batch carries from scan to scan must not depend on it.
func HandBatch(sc *Scan, b *tuplegen.Batch) {
	if sc.b != b {
		b.Reshape(len(sc.cols), 0, sc.lo+1) // what spannedScan does to a pooled batch
		sc.b = b
	}
}
