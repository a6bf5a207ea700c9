package tuplegen

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"github.com/dsl-repro/hydra/internal/summary"
)

// spreadRS is a relation whose FK spans exceed 1, so the spread-FK
// extension actually changes assignments.
func spreadRS() *summary.RelationSummary {
	return &summary.RelationSummary{
		Table:  "R",
		Cols:   []string{"A"},
		FKCols: []string{"s_fk", "t_fk"},
		FKRefs: []string{"S", "T"},
		Rows: []summary.RelRow{
			{Vals: []int64{5}, FKs: []int64{1, 11}, FKSpans: []int64{4, 1}, Count: 1000},
			{Vals: []int64{9}, FKs: []int64{5, 12}, FKSpans: []int64{7, 3}, Count: 1},
			{Vals: []int64{13}, FKs: []int64{12, 15}, FKSpans: []int64{1, 5}, Count: 2345},
		},
		Total: 3346,
	}
}

// TestBatchMatchesRow is the core contract: for any (startPK, n) and both
// FK-spread settings, Batch must produce exactly the tuples Row produces.
func TestBatchMatchesRow(t *testing.T) {
	for _, spread := range []bool{false, true} {
		g := New(spreadRS())
		g.SetFKSpread(spread)
		rng := rand.New(rand.NewSource(7))
		var b *Batch
		var want, got []int64
		for trial := 0; trial < 200; trial++ {
			start := rng.Int63n(g.NumRows()) + 1
			n := rng.Intn(900) + 1
			b = g.Batch(start, n, b)
			wantN := int(g.NumRows() - start + 1)
			if wantN > n {
				wantN = n
			}
			if b.N != wantN || b.Start != start {
				t.Fatalf("spread=%v Batch(%d,%d): N=%d Start=%d, want N=%d", spread, start, n, b.N, b.Start, wantN)
			}
			for i := 0; i < b.N; i++ {
				want = g.Row(start+int64(i), want)
				got = b.Row(got, i)
				for c := range want {
					if got[c] != want[c] {
						t.Fatalf("spread=%v pk %d col %d: batch %v, row %v", spread, start+int64(i), c, got, want)
					}
				}
			}
		}
	}
}

// TestBatchSpansSummaryRows checks a batch crossing every summary-row
// boundary at once.
func TestBatchSpansSummaryRows(t *testing.T) {
	g := New(sampleRS())
	b := g.Batch(1, int(g.NumRows()), nil)
	if int64(b.N) != g.NumRows() {
		t.Fatalf("full batch N = %d, want %d", b.N, g.NumRows())
	}
	// Boundary tuples (cf. TestRowLookup).
	checks := map[int64][4]int64{
		150: {150, 20, 15, 1},
		151: {151, 20, 40, 9},
		401: {401, 61, 15, 3},
	}
	for pk, want := range checks {
		i := int(pk - 1)
		for c := 0; c < 4; c++ {
			if b.Cols[c][i] != want[c] {
				t.Fatalf("pk %d col %d = %d, want %d", pk, c, b.Cols[c][i], want[c])
			}
		}
	}
}

func TestBatchEdgeCases(t *testing.T) {
	g := New(sampleRS())
	if b := g.Batch(701, 10, nil); b.N != 0 {
		t.Fatalf("past-the-end batch N = %d, want 0", b.N)
	}
	if b := g.Batch(700, 10, nil); b.N != 1 || b.Cols[0][0] != 700 {
		t.Fatalf("tail clamp failed: N=%d", b.N)
	}
	if b := g.Batch(1, 0, nil); b.N != 0 {
		t.Fatalf("empty batch N = %d", b.N)
	}
	// Reuse must shrink and regrow cleanly.
	b := g.Batch(1, 500, nil)
	b = g.Batch(1, 3, b)
	if b.N != 3 || len(b.Cols[0]) != 3 {
		t.Fatalf("reused batch N=%d len=%d", b.N, len(b.Cols[0]))
	}
}

// TestBatchSpreadPreservesJoinCardinalities verifies the SetFKSpread
// contract under the Batch API: spreading changes which referenced row a
// tuple points at, but never how many tuples point into each referenced
// span (every row of a span carries the same attribute values, so join
// cardinalities are untouched). Spread-on must distribute round-robin
// within [fk, fk+span).
func TestBatchSpreadPreservesJoinCardinalities(t *testing.T) {
	rs := spreadRS()
	perSpan := func(spread bool) map[int64]int64 {
		g := New(rs)
		g.SetFKSpread(spread)
		counts := map[int64]int64{} // span base fk → tuples referencing the span
		var b *Batch
		for off := int64(0); off < g.NumRows(); off += 512 {
			b = g.Batch(off+1, 512, b)
			for i := 0; i < b.N; i++ {
				pk := b.Cols[0][i]
				j := 0
				var cum int64
				for ; ; j++ {
					cum += rs.Rows[j].Count
					if cum >= pk {
						break
					}
				}
				base, span := rs.Rows[j].FKs[0], rs.Rows[j].FKSpans[0]
				fk := b.Cols[2][i] // s_fk: after pk and A
				if fk < base || fk >= base+span {
					t.Fatalf("spread=%v pk %d: fk %d outside span [%d,%d)", spread, pk, fk, base, base+span)
				}
				counts[base]++
			}
		}
		return counts
	}
	off := perSpan(false)
	on := perSpan(true)
	if len(off) != len(on) {
		t.Fatalf("span sets differ: %v vs %v", off, on)
	}
	for base, n := range off {
		if on[base] != n {
			t.Fatalf("span %d: %d tuples with spread off, %d with spread on", base, n, on[base])
		}
	}
	// And spread-on must be a true round-robin: per referenced row the
	// tuple count differs by at most 1 within a span.
	g := New(rs)
	g.SetFKSpread(true)
	perRow := map[int64]int64{}
	b := g.Batch(1, int(g.NumRows()), nil)
	for i := 0; i < b.N; i++ {
		perRow[b.Cols[2][i]]++
	}
	for _, row := range rs.Rows {
		base, span := row.FKs[0], row.FKSpans[0]
		var lo, hi int64 = 1 << 62, 0
		for fk := base; fk < base+span; fk++ {
			c := perRow[fk]
			if c < lo {
				lo = c
			}
			if c > hi {
				hi = c
			}
		}
		if hi-lo > 1 {
			t.Fatalf("span [%d,%d): per-row counts range [%d,%d], not round-robin", base, base+span, lo, hi)
		}
	}
}

// TestBatchColsMatchesBatch: for random projections, ranges, and both
// FK-spread settings, BatchCols must produce exactly the projected
// columns of the full batch, in projection order.
func TestBatchColsMatchesBatch(t *testing.T) {
	for _, spread := range []bool{false, true} {
		g := New(spreadRS())
		g.SetFKSpread(spread)
		rng := rand.New(rand.NewSource(11))
		var full, proj *Batch
		for trial := 0; trial < 200; trial++ {
			start := rng.Int63n(g.NumRows()) + 1
			n := rng.Intn(700) + 1
			// A random non-empty subset of columns in random order.
			perm := rng.Perm(g.NumCols())
			idx := perm[:rng.Intn(g.NumCols())+1]
			full = g.Batch(start, n, full)
			proj = g.BatchCols(start, n, proj, idx)
			if proj.N != full.N || proj.Start != full.Start || len(proj.Cols) != len(idx) {
				t.Fatalf("spread=%v BatchCols(%d,%d,%v): N=%d Start=%d cols=%d",
					spread, start, n, idx, proj.N, proj.Start, len(proj.Cols))
			}
			for c, src := range idx {
				for i := 0; i < proj.N; i++ {
					if proj.Cols[c][i] != full.Cols[src][i] {
						t.Fatalf("spread=%v pk %d: projected col %d (src %d) = %d, want %d",
							spread, start+int64(i), c, src, proj.Cols[c][i], full.Cols[src][i])
					}
				}
			}
		}
	}
}

// TestBatchColsNilIsBatch: a nil projection is the identity.
func TestBatchColsNilIsBatch(t *testing.T) {
	g := New(spreadRS())
	full := g.Batch(10, 100, nil)
	same := g.BatchCols(10, 100, nil, nil)
	if len(same.Cols) != len(full.Cols) || same.N != full.N {
		t.Fatalf("nil projection reshaped the batch")
	}
	for c := range full.Cols {
		for i := 0; i < full.N; i++ {
			if same.Cols[c][i] != full.Cols[c][i] {
				t.Fatalf("col %d row %d differs", c, i)
			}
		}
	}
}

// TestProject resolves names and rejects mistakes.
func TestProject(t *testing.T) {
	g := New(spreadRS())
	idx, err := g.Project([]string{"t_fk", "R_pk", "A"})
	if err != nil {
		t.Fatal(err)
	}
	if len(idx) != 3 || idx[0] != 3 || idx[1] != 0 || idx[2] != 1 {
		t.Fatalf("idx = %v", idx)
	}
	if idx, err := g.Project(nil); err != nil || idx != nil {
		t.Fatalf("nil projection: %v %v", idx, err)
	}
	if _, err := g.Project([]string{"nope"}); err == nil {
		t.Fatal("unknown column accepted")
	}
	if _, err := g.Project([]string{"A", "A"}); err == nil {
		t.Fatal("duplicate column accepted")
	}
}

// TestFillSpanMatchesRow is FillSpan's property test. Runs of awkward
// lengths — empty, one row, either side of every power of two the
// doubling fill passes, three default batches — sit at random phases of
// their summary row, with FK spans off, 1 and >1, under random
// projections and at a random destination row. Every value written must
// equal Generator.Row's, and nothing outside [at, at+N) may be touched.
func TestFillSpanMatchesRow(t *testing.T) {
	lengths := []int64{0, 1, 2, 3, 3 * 8192}
	for k := 2; k <= 14; k++ {
		lengths = append(lengths, 1<<k-1, 1<<k+1)
	}
	const untouched = math.MinInt64
	rng := rand.New(rand.NewSource(27))
	var row []int64
	for trial := 0; trial < 4*len(lengths); trial++ {
		n := lengths[trial%len(lengths)]
		nvals, nfks := rng.Intn(4), rng.Intn(4)
		spread := rng.Intn(2) == 1
		rs := &summary.RelationSummary{Table: "R"}
		hot := summary.RelRow{Vals: make([]int64, nvals), FKs: make([]int64, nfks)}
		for c := range hot.Vals {
			rs.Cols = append(rs.Cols, fmt.Sprintf("v%d", c))
			hot.Vals[c] = rng.Int63n(2e12) - 1e12
		}
		for c := range hot.FKs {
			rs.FKCols = append(rs.FKCols, fmt.Sprintf("f%d_fk", c))
			rs.FKRefs = append(rs.FKRefs, "P")
			hot.FKs[c] = rng.Int63n(1e9) + 1
			if spread {
				span := int64(1)
				switch rng.Intn(3) {
				case 1:
					span = rng.Int63n(50) + 2
				case 2:
					span = rng.Int63n(1<<40) + 2
				}
				hot.FKSpans = append(hot.FKSpans, span)
			}
		}
		// A summary row before the run's, so Start and Off differ, and a
		// tail after the run inside its own row.
		pre := rng.Int63n(1000) + 1
		off := rng.Int63n(1 << 20)
		if rng.Intn(4) == 0 {
			off = rng.Int63n(1 << 40)
		}
		hot.Count = off + n + rng.Int63n(3)
		if hot.Count == 0 {
			hot.Count = 1
		}
		lead := summary.RelRow{Vals: make([]int64, nvals), FKs: make([]int64, nfks), FKSpans: hot.FKSpans, Count: pre}
		rs.Rows = []summary.RelRow{lead, hot}
		rs.Total = pre + hot.Count
		g := New(rs)
		g.SetFKSpread(spread)

		sp := Span{Start: pre + off + 1, N: n, Vals: hot.Vals, FKs: hot.FKs, Off: off}
		if spread {
			sp.FKSpans = hot.FKSpans
		}
		if n > 0 {
			it := g.Spans(sp.Start, n)
			if got, _ := it.Next(); got.Start != sp.Start || got.N != n || got.Off != off || (got.FKSpans == nil) != (sp.FKSpans == nil) {
				t.Fatalf("trial %d: the fixture's span %+v is not what Spans yields (%+v)", trial, sp, got)
			}
		}
		ncols := g.NumCols()
		var idx []int
		if rng.Intn(3) > 0 {
			idx = rng.Perm(ncols)[:rng.Intn(ncols)+1]
		}
		width := ncols
		if idx != nil {
			width = len(idx)
		}
		at := rng.Intn(5)
		cols := make([][]int64, width)
		for c := range cols {
			cols[c] = make([]int64, at+int(n)+3)
			for i := range cols[c] {
				cols[c][i] = untouched
			}
		}
		if next := FillSpan(cols, at, &sp, idx); next != at+int(n) {
			t.Fatalf("trial %d: FillSpan returned %d, want %d", trial, next, at+int(n))
		}
		for i := range cols[0] {
			inRun := i >= at && i < at+int(n)
			if inRun {
				row = g.Row(sp.Start+int64(i-at), row)
			}
			for c := range cols {
				src := c
				if idx != nil {
					src = idx[c]
				}
				switch got := cols[c][i]; {
				case !inRun && got != untouched:
					t.Fatalf("trial %d (N=%d at=%d): row %d col %d written outside the run: %d", trial, n, at, i, c, got)
				case inRun && got != row[src]:
					t.Fatalf("trial %d (N=%d off=%d spans=%v idx=%v): pk %d col %d = %d, Row says %d",
						trial, n, off, sp.FKSpans, idx, sp.Start+int64(i-at), src, got, row[src])
				}
			}
		}
	}
}

// TestBatchEveryPKMatchesRow: Batch and BatchCols over a whole
// multi-row summary, into one batch reused across both shapes, agree
// with Row at every pk, and every column holds exactly N rows.
func TestBatchEveryPKMatchesRow(t *testing.T) {
	idx := []int{3, 0, 2}
	for _, spread := range []bool{false, true} {
		g := New(spreadRS())
		g.SetFKSpread(spread)
		n := int(g.NumRows())
		var b *Batch
		var row []int64
		for _, proj := range [][]int{idx, nil, idx} {
			b = g.BatchCols(1, n, b, proj)
			if b.N != n || b.Start != 1 {
				t.Fatalf("spread=%v idx=%v: N=%d Start=%d, want %d rows from 1", spread, proj, b.N, b.Start, n)
			}
			for c, col := range b.Cols {
				if len(col) != n {
					t.Fatalf("spread=%v idx=%v: column %d has %d rows, want %d", spread, proj, c, len(col), n)
				}
			}
			for i := 0; i < n; i++ {
				row = g.Row(int64(i+1), row)
				for c, col := range b.Cols {
					src := c
					if proj != nil {
						src = proj[c]
					}
					if col[i] != row[src] {
						t.Fatalf("spread=%v idx=%v pk %d col %d = %d, Row says %d", spread, proj, i+1, src, col[i], row[src])
					}
				}
			}
		}
	}
}

// BenchmarkFillSpan measures the fill kernel alone on one 8 192-row run
// of a 15-column layout (pk, twelve values, two FKs), the width of the
// widest benchmark relations: const is every column but the pk a
// constant fill, spread has both FKs cycling.
func BenchmarkFillSpan(b *testing.B) {
	const rows = 8192
	vals := make([]int64, 12)
	for i := range vals {
		vals[i] = int64(1000 + i)
	}
	cols := make([][]int64, 15)
	for c := range cols {
		cols[c] = make([]int64, rows)
	}
	for _, tc := range []struct {
		name    string
		fkSpans []int64
	}{{"const", nil}, {"spread", []int64{7, 1000}}} {
		sp := Span{Start: 1, N: rows, Vals: vals, FKs: []int64{5, 9}, FKSpans: tc.fkSpans, Off: 3}
		b.Run(tc.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				FillSpan(cols, 0, &sp, nil)
			}
			b.ReportMetric(float64(rows)*float64(b.N)/b.Elapsed().Seconds(), "rows/s")
		})
	}
}
