package summary

import (
	"bytes"
	"testing"

	"github.com/dsl-repro/hydra/internal/cc"
	"github.com/dsl-repro/hydra/internal/core"
	"github.com/dsl-repro/hydra/internal/pred"
	"github.com/dsl-repro/hydra/internal/preprocess"
	"github.com/dsl-repro/hydra/internal/schema"
)

// twoTable builds R → S with CCs over S's two attributes that force two
// sub-views inside R_view and S_view.
func twoTable(t *testing.T) (*schema.Schema, map[string]*preprocess.View, *cc.Workload) {
	t.Helper()
	s := schema.MustNew(
		&schema.Table{Name: "S", Cols: []schema.Column{
			{Name: "A", Min: 0, Max: 99}, {Name: "B", Min: 0, Max: 99},
		}, RowCount: 100},
		&schema.Table{Name: "R", FKs: []schema.ForeignKey{{FKCol: "S_fk", Ref: "S"}}, RowCount: 1000},
	)
	sa := schema.AttrRef{Table: "S", Col: "A"}
	sb := schema.AttrRef{Table: "S", Col: "B"}
	in := func(lo, hi int64) pred.DNF {
		return pred.DNF{Terms: []pred.Conjunct{pred.NewConjunct().With(0, pred.Range(lo, hi))}}
	}
	w := &cc.Workload{Name: "w", CCs: []cc.CC{
		{Root: "S", Pred: pred.True(), Count: 100, Name: "sizeS"},
		{Root: "R", Pred: pred.True(), Count: 1000, Name: "sizeR"},
		{Root: "S", Attrs: []schema.AttrRef{sa}, Pred: in(10, 49), Count: 30, Name: "selA"},
		{Root: "S", Attrs: []schema.AttrRef{sb}, Pred: in(50, 99), Count: 60, Name: "selB"},
		{Root: "R", Attrs: []schema.AttrRef{sa}, Pred: in(10, 49), Count: 400, Name: "joinA"},
	}}
	views, err := preprocess.BuildViews(s, w)
	if err != nil {
		t.Fatal(err)
	}
	return s, views, w
}

func solveAll(t *testing.T, s *schema.Schema, views map[string]*preprocess.View) map[string]*core.ViewSolution {
	t.Helper()
	sols := map[string]*core.ViewSolution{}
	order, _ := s.TopoOrder()
	for _, tab := range order {
		sol, err := core.FormulateAndSolve(views[tab.Name], core.Options{})
		if err != nil {
			t.Fatalf("view %s: %v", tab.Name, err)
		}
		sols[tab.Name] = sol
	}
	return sols
}

func TestBuildSatisfiesCCs(t *testing.T) {
	s, views, w := twoTable(t)
	sum, err := Build(s, views, solveAll(t, s, views))
	if err != nil {
		t.Fatal(err)
	}
	reports, err := Evaluate(sum, views, w)
	if err != nil {
		t.Fatal(err)
	}
	// Views are solved independently, so R_view's joint (A,B) choices can
	// demand combinations S_view never instantiated; §5.3 repairs those
	// with singleton insertions. The paper's signature properties: errors
	// are strictly non-negative (extra tuples only ever add) and additive
	// — a handful of rows, not proportional to scale.
	for _, r := range reports {
		if r.RelErr < 0 {
			t.Errorf("CC %s: negative error %f (Hydra must only gain tuples)", r.Name, r.RelErr)
		}
		if r.Got-r.Want > 3 {
			t.Errorf("CC %s: additive error %d too large", r.Name, r.Got-r.Want)
		}
		if r.Root == "R" && r.RelErr != 0 {
			t.Errorf("CC %s on the root view must be exact, got %d want %d", r.Name, r.Got, r.Want)
		}
	}
}

func TestViewSummaryMassConservation(t *testing.T) {
	s, views, _ := twoTable(t)
	sum, err := Build(s, views, solveAll(t, s, views))
	if err != nil {
		t.Fatal(err)
	}
	// Mass per view = Total + inserted extras.
	for name, vs := range sum.Views {
		want := views[name].Total + sum.Extra[name]
		if vs.Total() != want {
			t.Errorf("view %s mass %d, want %d", name, vs.Total(), want)
		}
	}
	// Relation summaries mirror their view summaries row-for-row.
	for name, rs := range sum.Relations {
		vs := sum.Views[name]
		if len(rs.Rows) != len(vs.Rows) {
			t.Fatalf("relation %s rows %d != view rows %d", name, len(rs.Rows), len(vs.Rows))
		}
		for i := range rs.Rows {
			if rs.Rows[i].Count != vs.Rows[i].Count {
				t.Fatalf("relation %s row %d count mismatch", name, i)
			}
		}
	}
}

func TestFKsResolveToMatchingRows(t *testing.T) {
	s, views, _ := twoTable(t)
	sum, err := Build(s, views, solveAll(t, s, views))
	if err != nil {
		t.Fatal(err)
	}
	rRel := sum.Relations["R"]
	sView := sum.Views["S"]
	rView := sum.Views["R"]
	rv := views["R"]
	// For every R summary row, the FK must point into the S row holding
	// exactly the projected value combination.
	for i, row := range rRel.Rows {
		proj := rv.ProjectRow(rView.Rows[i].Vals, "S")
		fk := row.FKs[0]
		// Walk S's cumulative counts to find the row containing pk=fk.
		var cum int64
		var hit int = -1
		for j, srow := range sView.Rows {
			if fk > cum && fk <= cum+srow.Count {
				hit = j
				break
			}
			cum += srow.Count
		}
		if hit == -1 {
			t.Fatalf("R row %d: fk %d beyond S mass", i, fk)
		}
		for k := range proj {
			if sView.Rows[hit].Vals[k] != proj[k] {
				t.Fatalf("R row %d: fk lands on S row %d with values %v, want %v",
					i, hit, sView.Rows[hit].Vals, proj)
			}
		}
	}
}

func TestReferentialInsertsAreCounted(t *testing.T) {
	// Force a missing combination: R's CC demands tuples with A in a
	// range S's own solution never instantiates... construct manually.
	s := schema.MustNew(
		&schema.Table{Name: "S", Cols: []schema.Column{{Name: "A", Min: 0, Max: 9}}, RowCount: 10},
		&schema.Table{Name: "R", FKs: []schema.ForeignKey{{FKCol: "S_fk", Ref: "S"}}, RowCount: 100},
	)
	views, err := preprocess.BuildViews(s, &cc.Workload{CCs: []cc.CC{
		{Root: "S", Pred: pred.True(), Count: 10, Name: "sizeS"},
		{Root: "R", Pred: pred.True(), Count: 100, Name: "sizeR"},
		// R needs rows with A≥5 but S has no CC forcing such values: S's
		// single-region solution instantiates everything at A=0.
		{Root: "R", Attrs: []schema.AttrRef{{Table: "S", Col: "A"}},
			Pred:  pred.DNF{Terms: []pred.Conjunct{pred.NewConjunct().With(0, pred.Range(5, 9))}},
			Count: 40, Name: "joinHi"},
	}})
	if err != nil {
		t.Fatal(err)
	}
	sum, err := Build(s, views, solveAll(t, s, views))
	if err != nil {
		t.Fatal(err)
	}
	if sum.Extra["S"] == 0 {
		t.Fatal("expected referential-integrity insertions into S")
	}
	// The error is additive and tiny: one row per missing combination.
	if sum.Extra["S"] > 2 {
		t.Fatalf("extras = %d, want ≤ 2", sum.Extra["S"])
	}
	// |S| grew by exactly the extras.
	if got := sum.Relations["S"].Total; got != 10+sum.Extra["S"] {
		t.Fatalf("|S| = %d, want %d", got, 10+sum.Extra["S"])
	}
}

func TestSerializationRejectsCorrupt(t *testing.T) {
	var buf bytes.Buffer
	buf.WriteString(`{"version":1,"relations":{"X":{"Table":"X","Rows":[{"Vals":[1],"FKs":[],"Count":5}],"Total":99}}}`)
	if _, err := Read(&buf); err == nil {
		t.Fatal("total mismatch must be rejected")
	}
	buf.Reset()
	buf.WriteString(`{"version":9}`)
	if _, err := Read(&buf); err == nil {
		t.Fatal("wrong version must be rejected")
	}
	buf.Reset()
	buf.WriteString(`not json`)
	if _, err := Read(&buf); err == nil {
		t.Fatal("garbage must be rejected")
	}
	// A spread summary gives every row one FK span >= 1 per FK.
	for spans, ok := range map[string]bool{"[3]": true, "null": false, "[3,3]": false, "[0]": false} {
		buf.Reset()
		buf.WriteString(`{"version":1,"fk_spread":true,"relations":{"R":{"Table":"R","FKCols":["S_fk"],"Rows":[{"FKs":[1],"FKSpans":` + spans + `,"Count":5}],"Total":5}}}`)
		if _, err := Read(&buf); (err == nil) != ok {
			t.Fatalf("spread row with FK spans %s: err = %v", spans, err)
		}
	}
}

func TestErrorCDF(t *testing.T) {
	reports := []CCReport{
		{RelErr: 0}, {RelErr: 0}, {RelErr: 0.05}, {RelErr: -0.5},
	}
	cdf := ErrorCDF(reports, []float64{0, 0.1, 1})
	if cdf[0] != 50 || cdf[1] != 75 || cdf[2] != 100 {
		t.Fatalf("cdf = %v", cdf)
	}
	if MaxAbsErr(reports) != 0.5 {
		t.Fatalf("MaxAbsErr = %f", MaxAbsErr(reports))
	}
	if got := ErrorCDF(nil, []float64{0}); got[0] != 0 {
		t.Fatal("empty reports should produce zeros")
	}
}

func TestRelErrEdgeCases(t *testing.T) {
	if relErr(0, 0) != 0 {
		t.Fatal("0/0 should be 0")
	}
	if !isInf(relErr(0, 5)) {
		t.Fatal("gain on zero-want should be +Inf")
	}
	if relErr(10, 5) != -0.5 {
		t.Fatal("negative error wrong")
	}
}

func isInf(f float64) bool { return f > 1e300 }
