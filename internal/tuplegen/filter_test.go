package tuplegen

import (
	"testing"

	"github.com/dsl-repro/hydra/internal/pred"
	"github.com/dsl-repro/hydra/internal/summary"
)

func filterTestRel() *summary.RelationSummary {
	return &summary.RelationSummary{
		Table: "S", Cols: []string{"A", "B"}, FKCols: []string{"t_fk"}, FKRefs: []string{"T"},
		Rows: []summary.RelRow{
			{Vals: []int64{20, 15}, FKs: []int64{1}, FKSpans: []int64{9}, Count: 31},
			{Vals: []int64{20, 40}, FKs: []int64{10}, FKSpans: []int64{6}, Count: 25},
			{Vals: []int64{61, 15}, FKs: []int64{1}, FKSpans: []int64{9}, Count: 27},
		},
		Total: 83,
	}
}

// TestFilteredSpansMatchBruteForce pins the span-filter algebra to the
// row-at-a-time ground truth: for a grab bag of conjuncts, over both FK
// modes, the sub-spans must cover exactly the rows the bound conjunct
// accepts, in pk order, with the exact tuple values.
func TestFilteredSpansMatchBruteForce(t *testing.T) {
	layoutLen := 4 // S_pk, A, B, t_fk
	conjuncts := map[string]pred.Conjunct{
		"all":        pred.NewConjunct(),
		"constPass":  pred.NewConjunct().With(1, pred.Point(20)),
		"constFail":  pred.NewConjunct().With(1, pred.Point(99)),
		"twoCols":    pred.NewConjunct().With(1, pred.Point(20)).With(2, pred.Point(40)),
		"pkRange":    pred.NewConjunct().With(0, pred.Range(30, 60)),
		"pkSet":      pred.NewConjunct().With(0, pred.NewSet(pred.Interval{Lo: 2, Hi: 4}, pred.Interval{Lo: 33, Hi: 33}, pred.Interval{Lo: 80, Hi: 100})),
		"fkConst":    pred.NewConjunct().With(3, pred.Range(1, 5)),
		"fkAndPk":    pred.NewConjunct().With(3, pred.Range(3, 12)).With(0, pred.Range(10, 70)),
		"everything": pred.NewConjunct().With(0, pred.Range(5, 75)).With(1, pred.Point(20)).With(3, pred.NewSet(pred.Interval{Lo: 2, Hi: 3}, pred.Interval{Lo: 11, Hi: 11})),
		"empty":      pred.NewConjunct().With(2, pred.Set{}),
	}
	for _, spread := range []bool{false, true} {
		g := New(filterTestRel())
		g.SetFKSpread(spread)
		for name, c := range conjuncts {
			sf, err := NewSpanFilter(c, 2, 1)
			if err != nil {
				t.Fatal(err)
			}
			if name == "all" && sf != nil {
				t.Fatal("unconstrained conjunct built a non-nil SpanFilter")
			}
			// Ground truth: evaluate every row.
			var wantPKs []int64
			var row []int64
			for pk := int64(1); pk <= g.NumRows(); pk++ {
				row = g.Row(pk, row)
				if c.Eval(row) {
					wantPKs = append(wantPKs, pk)
				}
			}
			// Filtered spans, materialized through FillSpan.
			var b Batch
			var gotPKs []int64
			it := g.FilteredSpans(1, g.NumRows(), sf)
			for {
				sp, ok := it.Next()
				if !ok {
					break
				}
				cols := b.Reshape(layoutLen, int(sp.N), sp.Start)
				b.FillSpan(0, &sp, nil)
				for i := 0; i < int(sp.N); i++ {
					pk := cols[0][i]
					if len(gotPKs) > 0 && pk <= gotPKs[len(gotPKs)-1] {
						t.Fatalf("spread=%v %s: pk %d out of order", spread, name, pk)
					}
					gotPKs = append(gotPKs, pk)
					row = g.Row(pk, row)
					for cIdx := range cols {
						if cols[cIdx][i] != row[cIdx] {
							t.Fatalf("spread=%v %s: pk %d col %d = %d, want %d", spread, name, pk, cIdx, cols[cIdx][i], row[cIdx])
						}
					}
				}
			}
			if len(gotPKs) != len(wantPKs) {
				t.Fatalf("spread=%v %s: got %d rows, want %d", spread, name, len(gotPKs), len(wantPKs))
			}
			for i := range wantPKs {
				if gotPKs[i] != wantPKs[i] {
					t.Fatalf("spread=%v %s: row %d pk = %d, want %d", spread, name, i, gotPKs[i], wantPKs[i])
				}
			}
		}
	}
}

func TestNewSpanFilterRejectsOutOfLayout(t *testing.T) {
	if _, err := NewSpanFilter(pred.NewConjunct().With(9, pred.Point(1)), 2, 1); err == nil {
		t.Fatal("attribute beyond layout accepted")
	}
}

// TestFillSpanProjection exercises the idx-mapped fill against Row.
func TestFillSpanProjection(t *testing.T) {
	g := New(filterTestRel())
	g.SetFKSpread(true)
	it := g.Spans(28, 10) // straddles the row-0/row-1 boundary
	idx := []int{3, 0}    // t_fk, S_pk
	var row []int64
	for {
		sp, ok := it.Next()
		if !ok {
			break
		}
		var b Batch
		cols := b.Reshape(len(idx), int(sp.N), sp.Start)
		b.FillSpan(0, &sp, idx)
		for i := 0; i < int(sp.N); i++ {
			pk := sp.Start + int64(i)
			row = g.Row(pk, row)
			if cols[0][i] != row[3] || cols[1][i] != pk {
				t.Fatalf("pk %d: got (%d,%d), want (%d,%d)", pk, cols[0][i], cols[1][i], row[3], pk)
			}
		}
	}
}
