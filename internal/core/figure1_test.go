package core_test

import (
	"context"
	"testing"

	"github.com/dsl-repro/hydra/internal/cc"
	"github.com/dsl-repro/hydra/internal/core"
	"github.com/dsl-repro/hydra/internal/lp"
	"github.com/dsl-repro/hydra/internal/pred"
	"github.com/dsl-repro/hydra/internal/preprocess"
	"github.com/dsl-repro/hydra/internal/schema"
	"github.com/dsl-repro/hydra/internal/summary"
)

// TestFigure1Backends regenerates the paper's Figure 1 scenario in each
// LP arithmetic: every CC of Figure 1d must hold exactly on the summary.
func TestFigure1Backends(t *testing.T) {
	s := schema.MustNew(
		&schema.Table{Name: "S", Cols: []schema.Column{
			{Name: "A", Min: 0, Max: 100},
			{Name: "B", Min: 0, Max: 50},
		}, RowCount: 700},
		&schema.Table{Name: "T", Cols: []schema.Column{
			{Name: "C", Min: 0, Max: 10},
		}, RowCount: 1500},
		&schema.Table{Name: "R", FKs: []schema.ForeignKey{
			{FKCol: "S_fk", Ref: "S"},
			{FKCol: "T_fk", Ref: "T"},
		}, RowCount: 80000},
	)
	sa := schema.AttrRef{Table: "S", Col: "A"}
	tc := schema.AttrRef{Table: "T", Col: "C"}
	aIn := pred.DNF{Terms: []pred.Conjunct{pred.NewConjunct().With(0, pred.Range(20, 59))}}
	cIn := pred.DNF{Terms: []pred.Conjunct{pred.NewConjunct().With(0, pred.Range(2, 2))}}
	joinPred := pred.DNF{Terms: []pred.Conjunct{
		pred.NewConjunct().With(0, pred.Range(20, 59)).With(1, pred.Range(2, 2)),
	}}
	w := &cc.Workload{Name: "figure1", CCs: []cc.CC{
		{Root: "R", Pred: pred.True(), Count: 80000, Name: "sizeR"},
		{Root: "S", Pred: pred.True(), Count: 700, Name: "sizeS"},
		{Root: "T", Pred: pred.True(), Count: 1500, Name: "sizeT"},
		{Root: "S", Attrs: []schema.AttrRef{sa}, Pred: aIn, Count: 400, Name: "selS"},
		{Root: "T", Attrs: []schema.AttrRef{tc}, Pred: cIn, Count: 900, Name: "selT"},
		{Root: "R", Attrs: []schema.AttrRef{sa}, Pred: aIn, Count: 50000, Name: "joinRS"},
		{Root: "R", Attrs: []schema.AttrRef{sa, tc}, Pred: joinPred, Count: 30000, Name: "joinRST"},
	}}
	views, err := preprocess.BuildViews(s, w)
	if err != nil {
		t.Fatal(err)
	}
	order, err := s.TopoOrder()
	if err != nil {
		t.Fatal(err)
	}
	ordered := make([]*preprocess.View, len(order))
	for i, tab := range order {
		ordered[i] = views[tab.Name]
	}

	for _, backend := range []lp.Backend{lp.Auto, lp.Rational, lp.Float} {
		solved, err := core.SolveViews(context.Background(), ordered, core.Options{Backend: backend})
		if err != nil {
			t.Fatalf("backend %v: %v", backend, err)
		}
		sols := make(map[string]*core.ViewSolution, len(order))
		for i, tab := range order {
			sols[tab.Name] = solved[i]
		}
		sum, err := summary.Build(s, views, sols)
		if err != nil {
			t.Fatalf("backend %v: %v", backend, err)
		}
		reports, err := summary.Evaluate(sum, views, w)
		if err != nil {
			t.Fatal(err)
		}
		if m := summary.MaxAbsErr(reports); m != 0 {
			t.Errorf("backend %v: max |relerr| = %v, want 0", backend, m)
		}
	}
}
