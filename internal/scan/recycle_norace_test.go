//go:build !race

// Under the race detector sync.Pool drops a share of what is put back on
// purpose, so a scan may start from a fresh batch; the memory pin below
// holds only without it.

package scan_test

import (
	"context"
	"runtime"
	"testing"

	"github.com/dsl-repro/hydra/internal/scan"
)

// TestSummaryScanRecyclesBatch pins the point of recycling batches:
// once warm, a 50 000-row scan of a 15-column table allocates no
// columns. A fresh batch per scan is ~1 MB (15 columns × 8 192 rows ×
// 8 B); the bound leaves room for the scan's own small objects.
func TestSummaryScanRecyclesBatch(t *testing.T) {
	src := scan.NewSummarySource(wideSummary())
	spec := scan.Spec{Table: "W", StartPK: 5001, EndPK: 55000}
	scanOnce := func() {
		sc, err := src.Scan(context.Background(), spec)
		if err != nil {
			t.Fatal(err)
		}
		var rows int64
		for sc.Next() {
			rows += int64(sc.Batch().N)
		}
		if err := sc.Err(); err != nil {
			t.Fatal(err)
		}
		sc.Close()
		if rows != 50000 {
			t.Fatalf("scanned %d rows, want 50000", rows)
		}
	}
	for i := 0; i < 3; i++ {
		scanOnce()
	}
	const scans = 20
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < scans; i++ {
		scanOnce()
	}
	runtime.ReadMemStats(&after)
	if per := (after.TotalAlloc - before.TotalAlloc) / scans; per >= 64<<10 {
		t.Fatalf("a warm 50 000-row scan allocates %d B, want < 64 KiB", per)
	}
}
