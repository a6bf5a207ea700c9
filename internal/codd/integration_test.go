package codd_test

import (
	"testing"

	"github.com/dsl-repro/hydra/internal/codd"
	"github.com/dsl-repro/hydra/internal/engine"
	"github.com/dsl-repro/hydra/internal/pred"
	"github.com/dsl-repro/hydra/internal/scan"
	"github.com/dsl-repro/hydra/internal/schema"
)

// columnsDB serves every table of s at its RowCount, row i (1-based) of
// column c holding val(table, c, i).
func columnsDB(t *testing.T, s *schema.Schema, val func(table string, c int, i int64) int64) *engine.Database {
	t.Helper()
	var tables []scan.MemTable
	for _, tab := range s.Tables {
		mt := scan.MemTable{Name: tab.Name, Cols: engine.ColLayout(tab)}
		for c := range mt.Cols {
			col := make([]int64, tab.RowCount)
			for i := range col {
				col[i] = val(tab.Name, c, int64(i+1))
			}
			mt.Data = append(mt.Data, col)
		}
		tables = append(tables, mt)
	}
	src, err := scan.NewMemSource(tables...)
	if err != nil {
		t.Fatal(err)
	}
	return engine.NewDatabase(src)
}

// TestMetadataMatchingForcesSamePlan exercises the CODD flow of §3.2/§7.4:
// the client optimizes against captured metadata; the vendor optimizes
// against the scaled copy of that metadata; both must choose the same join
// order, because histogram selectivities are scale-invariant.
func TestMetadataMatchingForcesSamePlan(t *testing.T) {
	s := schema.MustNew(
		&schema.Table{Name: "d1", Cols: []schema.Column{{Name: "a", Min: 0, Max: 999}}, RowCount: 500},
		&schema.Table{Name: "d2", Cols: []schema.Column{{Name: "b", Min: 0, Max: 999}}, RowCount: 500},
		&schema.Table{Name: "f", FKs: []schema.ForeignKey{
			{FKCol: "d1_fk", Ref: "d1"}, {FKCol: "d2_fk", Ref: "d2"},
		}, RowCount: 5000},
	)
	db := columnsDB(t, s, func(table string, c int, i int64) int64 {
		switch {
		case c == 0:
			return i
		case table != "f":
			return i % 1000
		case c == 1:
			return i%500 + 1
		}
		return (i*7)%500 + 1
	})

	md, err := codd.Capture(db, s)
	if err != nil {
		t.Fatal(err)
	}
	q := &engine.Query{
		Name: "q",
		Root: "f",
		Joins: []engine.JoinStep{
			{Table: "d1", Via: "f"},
			{Table: "d2", Via: "f"},
		},
		Filters: map[string]pred.DNF{
			// d2's filter is far more selective, so both sites should
			// probe d2 first.
			"d1": {Terms: []pred.Conjunct{pred.NewConjunct().With(0, pred.Range(0, 899))}},
			"d2": {Terms: []pred.Conjunct{pred.NewConjunct().With(0, pred.Range(0, 9))}},
		},
	}
	clientPlan := engine.Optimize(q, md.Estimator(s, q.Filters))
	vendorMD := md.Scale(1_000_000) // exabyte-style scaling
	vendorPlan := engine.Optimize(q, vendorMD.Estimator(s, q.Filters))
	if clientPlan.Joins[0].Table != "d2" {
		t.Fatalf("client should probe d2 first, got %v", clientPlan.Joins)
	}
	for i := range clientPlan.Joins {
		if clientPlan.Joins[i] != vendorPlan.Joins[i] {
			t.Fatalf("plans diverge at step %d: %v vs %v", i, clientPlan.Joins, vendorPlan.Joins)
		}
	}
	// Metadata matching (identity check) must pass for the copy, fail for
	// the scaled version.
	md2, _ := codd.Capture(db, s)
	if err := codd.Match(md, md2); err != nil {
		t.Fatalf("identical metadata must match: %v", err)
	}
	if err := codd.Match(md, vendorMD); err == nil {
		t.Fatal("scaled metadata must not match the original")
	}
}

// TestAQPSameOnForcedPlan checks that executing the same forced plan twice
// (regardless of optimizer input) yields identical annotations — plans are
// deterministic values.
func TestAQPSameOnForcedPlan(t *testing.T) {
	s := schema.MustNew(
		&schema.Table{Name: "d", Cols: []schema.Column{{Name: "a", Min: 0, Max: 9}}, RowCount: 10},
		&schema.Table{Name: "f", FKs: []schema.ForeignKey{{FKCol: "d_fk", Ref: "d"}}, RowCount: 100},
	)
	db := columnsDB(t, s, func(table string, c int, i int64) int64 {
		switch {
		case c == 0:
			return i
		case table == "d":
			return i % 10
		}
		return i%10 + 1
	})
	q := &engine.Query{
		Name:  "q",
		Root:  "f",
		Joins: []engine.JoinStep{{Table: "d", Via: "f"}},
		Filters: map[string]pred.DNF{
			"d": {Terms: []pred.Conjunct{pred.NewConjunct().With(0, pred.Range(0, 4))}},
		},
	}
	a1, err := engine.Execute(db, s, q)
	if err != nil {
		t.Fatal(err)
	}
	a2, err := engine.Execute(db, s, q)
	if err != nil {
		t.Fatal(err)
	}
	if a1.JoinOut[0] != a2.JoinOut[0] || a1.FilterOut["d"] != a2.FilterOut["d"] {
		t.Fatal("forced plan must annotate deterministically")
	}
}
