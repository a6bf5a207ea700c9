package tuplegen

import (
	"math/rand"
	"testing"
)

// iterEmpty reports whether the iterator is exhausted.
func iterEmpty(it *SpanIter) bool {
	_, ok := it.Next()
	return !ok
}

// spanTuple reconstructs tuple i of a span through At, column by column.
func spanTuple(sp Span, i int64, dst []int64) []int64 {
	dst = dst[:0]
	for c := range 1 + len(sp.Vals) + len(sp.FKs) {
		dst = append(dst, sp.At(c, i))
	}
	return dst
}

// TestSpansMatchRow is the core contract: for any (startPK, n) and both
// FK-spread settings, reconstructing every tuple of every span through
// At must produce exactly what Row produces, with spans tiling the range.
func TestSpansMatchRow(t *testing.T) {
	for _, spread := range []bool{false, true} {
		g := New(spreadRS())
		g.SetFKSpread(spread)
		rng := rand.New(rand.NewSource(3))
		var want, got []int64
		for trial := 0; trial < 200; trial++ {
			start := rng.Int63n(g.NumRows()) + 1
			n := rng.Int63n(1400) + 1
			wantN := g.NumRows() - start + 1
			if wantN > n {
				wantN = n
			}
			pk := start
			it := g.Spans(start, n)
			for sp, ok := it.Next(); ok; sp, ok = it.Next() {
				if sp.Start != pk {
					t.Fatalf("spread=%v Spans(%d,%d): span starts at %d, want %d", spread, start, n, sp.Start, pk)
				}
				if sp.N < 1 {
					t.Fatalf("empty span at pk %d", pk)
				}
				for i := int64(0); i < sp.N; i++ {
					want = g.Row(sp.Start+i, want)
					got = spanTuple(sp, i, got)
					for c := range want {
						if got[c] != want[c] {
							t.Fatalf("spread=%v pk %d col %d: span %v, row %v", spread, sp.Start+i, c, got, want)
						}
						// Spreads names exactly the columns that change
						// from one tuple to the next, the pk aside.
						if c > 0 && i > 0 && (got[c] != sp.At(c, i-1)) != sp.Spreads(c) {
							t.Fatalf("spread=%v pk %d col %d: Spreads %v, but %d after %d", spread, sp.Start+i, c, sp.Spreads(c), got[c], sp.At(c, i-1))
						}
					}
				}
				pk += sp.N
			}
			if pk != start+wantN {
				t.Fatalf("spread=%v Spans(%d,%d): covered through %d, want %d", spread, start, n, pk, start+wantN)
			}
		}
	}
}

// TestSpansMaximal checks that spans are whole summary rows except at the
// clamped edges: interior span boundaries must coincide with summary-row
// boundaries.
func TestSpansMaximal(t *testing.T) {
	g := New(spreadRS())
	it := g.Spans(1, g.NumRows())
	var starts []int64
	for sp, ok := it.Next(); ok; sp, ok = it.Next() {
		starts = append(starts, sp.Start)
	}
	want := []int64{1, 1001, 1002}
	if len(starts) != len(want) {
		t.Fatalf("full-range spans start at %v, want %v", starts, want)
	}
	for i := range want {
		if starts[i] != want[i] {
			t.Fatalf("full-range spans start at %v, want %v", starts, want)
		}
	}
	// A range starting mid-row must carry the correct modular phase.
	g.SetFKSpread(true)
	it = g.Spans(500, 10)
	sp, ok := it.Next()
	if !ok || sp.Off != 499 || sp.N != 10 {
		t.Fatalf("mid-row span = %+v", sp)
	}
	if sp.Spreads(1 + len(sp.Vals)) {
		// spreadRS row 0 has spans {4, 1}: s_fk varies, t_fk constant.
		var got []int64
		got = spanTuple(sp, 0, got)
		want := g.Row(500, nil)
		for c := range want {
			if got[c] != want[c] {
				t.Fatalf("mid-row phase: col %d = %d, want %d", c, got[c], want[c])
			}
		}
	} else {
		t.Fatal("spread span with FK span 4 must not report constant FKs")
	}
}

func TestSpansEdgeCases(t *testing.T) {
	g := New(sampleRS())
	if it := g.Spans(701, 10); !iterEmpty(&it) {
		t.Fatal("past-the-end range must yield no spans")
	}
	if it := g.Spans(1, 0); !iterEmpty(&it) {
		t.Fatal("empty range must yield no spans")
	}
	it := g.Spans(700, 10) // tail clamp
	sp, ok := it.Next()
	if !ok || sp.Start != 700 || sp.N != 1 {
		t.Fatalf("tail span = %+v", sp)
	}
	if !iterEmpty(&it) {
		t.Fatal("tail range must end after one span")
	}
	// Spread off: FKSpans must be nil even when the row carries spans.
	g2 := New(spreadRS())
	it2 := g2.Spans(1, 5)
	if sp, _ := it2.Next(); sp.FKSpans != nil {
		t.Fatalf("spread-off span carries FKSpans %v", sp.FKSpans)
	}
}

// TestSpanIterZeroAlloc pins the worker-loop property the materialization
// engine depends on: iterating spans allocates nothing.
func TestSpanIterZeroAlloc(t *testing.T) {
	g := New(spreadRS())
	g.SetFKSpread(true)
	var total int64
	allocs := testing.AllocsPerRun(100, func() {
		it := g.Spans(1, g.NumRows())
		for sp, ok := it.Next(); ok; sp, ok = it.Next() {
			total += sp.N
		}
	})
	if allocs != 0 {
		t.Fatalf("span iteration allocates %.1f per run, want 0", allocs)
	}
	_ = total
}
