package tpcds

import (
	"testing"

	"github.com/dsl-repro/hydra/internal/core"
	"github.com/dsl-repro/hydra/internal/engine"
	"github.com/dsl-repro/hydra/internal/lp"
	"github.com/dsl-repro/hydra/internal/preprocess"
)

// TestWLsFormulationFeasible is a regression test for a subtle bug class:
// an empty (false) predicate produced by an out-of-domain filter used to be
// misclassified as a relation-size CC, overwriting the view total with 0
// and making every fact view infeasible. The store_sales WLs formulation
// must be exactly satisfiable.
func TestWLsFormulationFeasible(t *testing.T) {
	cfg := Config{SF: 0.1, Seed: 42}
	s := Schema(cfg)
	db, err := GenerateDB(s, cfg)
	if err != nil {
		t.Fatal(err)
	}
	w, _, err := engine.WorkloadFromQueries(db, s, "WLs", QueriesSimple(s, cfg, 90))
	if err != nil {
		t.Fatal(err)
	}
	views, err := preprocess.BuildViews(s, w)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("store_sales view Total = %d (schema RowCount %d)", views["store_sales"].Total, s.MustTable("store_sales").RowCount)
	for i := range w.CCs {
		c := &w.CCs[i]
		if c.Root == "store_sales" && c.IsSize() {
			t.Logf("size CC %q count=%d attrs=%v terms=%d", c.Name, c.Count, c.Attrs, len(c.Pred.Terms))
		}
	}
	f, err := core.FormulateWith(views["store_sales"], core.RegionStrategy)
	if err != nil {
		t.Fatal(err)
	}
	res, err := lp.SolveSoft(f.Problem(), lp.Auto)
	if err != nil {
		t.Fatal(err)
	}
	bad := 0
	for i, r := range f.Problem().Rows {
		if res.Residuals[i] != 0 {
			bad++
			if bad <= 25 {
				t.Logf("row %q: residual %+d (rhs %d)", r.Name, res.Residuals[i], r.RHS)
			}
		}
	}
	t.Logf("total violated rows: %d / %d, totalAbs %d", bad, len(f.Problem().Rows), res.TotalAbs)
	if res.TotalAbs != 0 {
		t.Fatalf("WLs store_sales formulation must be feasible; violation mass %d", res.TotalAbs)
	}
	if views["store_sales"].Total == 0 {
		t.Fatal("view total must come from the size CC, not an empty predicate")
	}
}
