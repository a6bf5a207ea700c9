package codd

import (
	"math"
	"testing"

	"github.com/dsl-repro/hydra/internal/engine"
	"github.com/dsl-repro/hydra/internal/pred"
	"github.com/dsl-repro/hydra/internal/scan"
	"github.com/dsl-repro/hydra/internal/schema"
)

func statsSchema() *schema.Schema {
	return schema.MustNew(&schema.Table{
		Name: "P",
		Cols: []schema.Column{{Name: "v", Min: 0, Max: 999}},
	})
}

func statsDB(t *testing.T, n int) *engine.Database {
	t.Helper()
	pk, v := make([]int64, n), make([]int64, n)
	for i := range n {
		pk[i], v[i] = int64(i+1), int64((i+1)%1000)
	}
	src, err := scan.NewMemSource(scan.MemTable{Name: "P", Cols: []string{"P_pk", "v"}, Data: [][]int64{pk, v}})
	if err != nil {
		t.Fatal(err)
	}
	return engine.NewDatabase(src)
}

func TestCaptureBasics(t *testing.T) {
	s := statsSchema()
	db := statsDB(t, 5000)
	md, err := Capture(db, s)
	if err != nil {
		t.Fatal(err)
	}
	ts := md.Tables["P"]
	if ts.RowCount != 5000 {
		t.Fatalf("rowcount = %d", ts.RowCount)
	}
	cs := ts.Cols["v"]
	if cs.Min != 0 || cs.Max != 999 || cs.NDV != 1000 {
		t.Fatalf("col stats wrong: %+v", cs)
	}
	var total int64
	for _, b := range cs.Buckets {
		total += b.Rows
	}
	if total != 5000 {
		t.Fatalf("bucket mass %d != 5000", total)
	}
}

func TestSelectivityUniform(t *testing.T) {
	s := statsSchema()
	db := statsDB(t, 10000)
	md, _ := Capture(db, s)
	// v in [0,499] covers half of a uniform domain.
	p := pred.DNF{Terms: []pred.Conjunct{pred.NewConjunct().With(0, pred.Range(0, 499))}}
	sel := md.Selectivity(s, "P", p)
	if math.Abs(sel-0.5) > 0.05 {
		t.Fatalf("selectivity = %f, want ≈0.5", sel)
	}
	est := md.EstimateCard(s, "P", p)
	if est < 4500 || est > 5500 {
		t.Fatalf("estimate = %d, want ≈5000", est)
	}
}

func TestSelectivityDisjunctionCapped(t *testing.T) {
	s := statsSchema()
	db := statsDB(t, 1000)
	md, _ := Capture(db, s)
	// Two disjuncts covering everything must cap at 1.
	p := pred.DNF{Terms: []pred.Conjunct{
		pred.NewConjunct().With(0, pred.Range(0, 999)),
		pred.NewConjunct().With(0, pred.Range(0, 999)),
	}}
	if sel := md.Selectivity(s, "P", p); sel != 1 {
		t.Fatalf("capped selectivity = %f", sel)
	}
}

func TestScalePreservesShape(t *testing.T) {
	s := statsSchema()
	db := statsDB(t, 1000)
	md, _ := Capture(db, s)
	// Exabyte modeling: scale row counts by 10^12 (§7.4).
	big := md.Scale(1_000_000_000_000)
	ts := big.Tables["P"]
	if ts.RowCount != 1000*1_000_000_000_000 {
		t.Fatalf("scaled rowcount = %d", ts.RowCount)
	}
	cs := ts.Cols["v"]
	if cs.Min != 0 || cs.Max != 999 || cs.NDV != md.Tables["P"].Cols["v"].NDV {
		t.Fatal("scaling must preserve domains and NDV")
	}
	// Selectivity estimates are scale-invariant.
	p := pred.DNF{Terms: []pred.Conjunct{pred.NewConjunct().With(0, pred.Range(0, 99))}}
	a := md.Selectivity(s, "P", p)
	b := big.Selectivity(s, "P", p)
	if math.Abs(a-b) > 1e-9 {
		t.Fatalf("selectivity changed under scaling: %f vs %f", a, b)
	}
}

func TestMatch(t *testing.T) {
	s := statsSchema()
	db := statsDB(t, 1000)
	md1, _ := Capture(db, s)
	md2, _ := Capture(db, s)
	if err := Match(md1, md2); err != nil {
		t.Fatalf("identical captures must match: %v", err)
	}
	md3 := md1.Scale(10)
	if err := Match(md1, md3); err == nil {
		t.Fatal("scaled metadata must not match original")
	}
}

func TestEstimatorCallback(t *testing.T) {
	s := statsSchema()
	db := statsDB(t, 1000)
	md, _ := Capture(db, s)
	filters := map[string]pred.DNF{
		"P": {Terms: []pred.Conjunct{pred.NewConjunct().With(0, pred.Range(0, 99))}},
	}
	est := md.Estimator(s, filters)
	if sel := est("P"); math.Abs(sel-0.1) > 0.05 {
		t.Fatalf("estimator sel = %f, want ≈0.1", sel)
	}
	if sel := est("unfiltered"); sel != 1 {
		t.Fatalf("unfiltered table must estimate 1, got %f", sel)
	}
}

func TestCaptureEmptyTable(t *testing.T) {
	s := statsSchema()
	md, err := Capture(statsDB(t, 0), s)
	if err != nil {
		t.Fatal(err)
	}
	if md.Tables["P"].RowCount != 0 {
		t.Fatal("empty table should have 0 rows")
	}
	// Selectivity on empty stats must not divide by zero.
	p := pred.DNF{Terms: []pred.Conjunct{pred.NewConjunct().With(0, pred.Range(0, 9))}}
	_ = md.Selectivity(s, "P", p)
}
