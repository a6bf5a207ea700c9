package tpcds

import (
	"math"
	"slices"
	"testing"

	"github.com/dsl-repro/hydra/internal/core"
	"github.com/dsl-repro/hydra/internal/engine"
	"github.com/dsl-repro/hydra/internal/preprocess"
	"github.com/dsl-repro/hydra/internal/summary"
)

func smallCfg() Config { return Config{SF: 0.02, Seed: 42} }

func TestSchemaValid(t *testing.T) {
	s := Schema(smallCfg())
	if len(s.Tables) != len(defs) {
		t.Fatalf("got %d tables, want %d", len(s.Tables), len(defs))
	}
	if _, err := s.TopoOrder(); err != nil {
		t.Fatal(err)
	}
	for _, name := range FactTables() {
		if _, ok := s.Table(name); !ok {
			t.Fatalf("missing fact table %s", name)
		}
	}
}

func TestGenerateDBRespectsCountsAndFKs(t *testing.T) {
	cfg := smallCfg()
	s := Schema(cfg)
	db, err := GenerateDB(s, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, tab := range s.Tables {
		info, err := db.Table(tab.Name)
		if err != nil {
			t.Fatal(err)
		}
		if info.Rows != tab.RowCount {
			t.Fatalf("%s: %d rows, want %d", tab.Name, info.Rows, tab.RowCount)
		}
	}
	// FK validity of a fact table.
	ssTab := s.MustTable("store_sales")
	for fi, col := range scanTable(t, db, "store_sales")[1+len(ssTab.Cols):] {
		fkDef := ssTab.FKs[fi]
		ref := s.MustTable(fkDef.Ref)
		for _, v := range col {
			if v < 1 || v > ref.RowCount {
				t.Fatalf("dangling FK %s=%d (ref %s has %d rows)", fkDef.FKCol, v, fkDef.Ref, ref.RowCount)
			}
		}
	}
}

// scanTable reads a whole relation, column by column.
func scanTable(t *testing.T, db *engine.Database, table string) [][]int64 {
	t.Helper()
	cols, err := db.Columns(table, nil)
	if err != nil {
		t.Fatal(err)
	}
	return cols
}

func TestGenerateDBDeterministic(t *testing.T) {
	cfg := smallCfg()
	s := Schema(cfg)
	db1, _ := GenerateDB(s, cfg)
	db2, _ := GenerateDB(s, cfg)
	if !slices.EqualFunc(scanTable(t, db1, "item"), scanTable(t, db2, "item"), slices.Equal) {
		t.Fatal("nondeterministic generation of item")
	}
}

func TestQueriesValidate(t *testing.T) {
	cfg := smallCfg()
	s := Schema(cfg)
	for _, q := range QueriesComplex(s, cfg, DefaultComplexQueries) {
		if err := q.Validate(s); err != nil {
			t.Fatalf("WLc query %s invalid: %v", q.Name, err)
		}
	}
	for _, q := range QueriesSimple(s, cfg, 90) {
		if err := q.Validate(s); err != nil {
			t.Fatalf("WLs query %s invalid: %v", q.Name, err)
		}
	}
}

// TestEndToEndWLcHydra is the core integration test of the repository: the
// full client→vendor loop on the TPC-DS substrate with the complex
// workload. It asserts the paper's §7.1 quality bar — ~90% of CCs with
// essentially no error and nothing beyond 10% — at reduced scale.
func TestEndToEndWLcHydra(t *testing.T) {
	cfg := smallCfg()
	s := Schema(cfg)
	db, err := GenerateDB(s, cfg)
	if err != nil {
		t.Fatal(err)
	}
	queries := QueriesComplex(s, cfg, 40)
	w, _, err := engine.WorkloadFromQueries(db, s, "WLc-small", queries)
	if err != nil {
		t.Fatal(err)
	}
	if len(w.CCs) < 80 {
		t.Fatalf("workload too small: %d CCs", len(w.CCs))
	}
	views, err := preprocess.BuildViews(s, w)
	if err != nil {
		t.Fatal(err)
	}
	sols := map[string]*core.ViewSolution{}
	order, _ := s.TopoOrder()
	totalVars := 0
	for _, tab := range order {
		sol, err := core.FormulateAndSolve(views[tab.Name], core.Options{})
		if err != nil {
			t.Fatalf("view %s: %v", tab.Name, err)
		}
		if sol.Stats.Soft {
			t.Errorf("view %s required the soft fallback (CCs from real data must be feasible), residual %d", tab.Name, sol.Stats.SoftResidual)
		}
		sols[tab.Name] = sol
		totalVars += sol.Stats.Vars
	}
	sum, err := summary.Build(s, views, sols)
	if err != nil {
		t.Fatal(err)
	}
	reports, err := summary.Evaluate(sum, views, w)
	if err != nil {
		t.Fatal(err)
	}
	exact, within10, big := 0, 0, 0
	worstName, worst := "", 0.0
	neg := 0
	var surplus int64
	for _, r := range reports {
		a := math.Abs(r.RelErr)
		if a == 0 {
			exact++
		}
		if r.RelErr < 0 {
			neg++
		}
		if d := r.Got - r.Want; d > 0 {
			surplus += d
		}
		// Referential-integrity insertions are a fixed handful of rows;
		// at the test's tiny scale they can be 20% of an 8-row dimension
		// table. The paper's 10% bar is judged on constraints with
		// meaningful mass, and the fixed-count property separately.
		if r.Want >= 100 {
			big++
			if a <= 0.10 {
				within10++
			}
			if a > worst {
				worst, worstName = a, r.Name
			}
		}
	}
	n := len(reports)
	t.Logf("WLc-small: %d CCs, %d exact (%.1f%%), %d/%d big CCs within 10%%, worst %s %.3f, vars %d, surplus %d",
		n, exact, 100*float64(exact)/float64(n), within10, big, worstName, worst, totalVars, surplus)
	if float64(exact)/float64(n) < 0.85 {
		t.Errorf("only %d/%d CCs exact; paper reports ~90%%", exact, n)
	}
	if within10 != big {
		t.Errorf("%d/%d high-mass CCs beyond 10%% relative error", big-within10, big)
	}
	if neg != 0 {
		t.Errorf("%d CCs lost tuples; Hydra errors must be positive-only", neg)
	}
	if surplus > 500 {
		t.Errorf("surplus %d tuples; referential insertions should be a small fixed count", surplus)
	}
}

func TestWLsGridsAreSolvable(t *testing.T) {
	cfg := smallCfg()
	s := Schema(cfg)
	db, err := GenerateDB(s, cfg)
	if err != nil {
		t.Fatal(err)
	}
	queries := QueriesSimple(s, cfg, 30)
	w, _, err := engine.WorkloadFromQueries(db, s, "WLs-small", queries)
	if err != nil {
		t.Fatal(err)
	}
	views, err := preprocess.BuildViews(s, w)
	if err != nil {
		t.Fatal(err)
	}
	// Quantized constants must keep every view's grid enumerable.
	for name, v := range views {
		for _, in := range core.SubViewInputs(v) {
			g := gridCells(in)
			if !g.IsInt64() || g.Int64() > 1_000_000 {
				t.Errorf("view %s: WLs grid has %v cells; should be solvable", name, g)
			}
		}
	}
}
