package cc

import (
	"testing"

	"github.com/dsl-repro/hydra/internal/pred"
	"github.com/dsl-repro/hydra/internal/schema"
)

func toySchema() *schema.Schema {
	return schema.MustNew(
		&schema.Table{Name: "S", Cols: []schema.Column{{Name: "A", Min: 0, Max: 100}}, RowCount: 700},
		&schema.Table{Name: "R", FKs: []schema.ForeignKey{{FKCol: "S_fk", Ref: "S"}}, RowCount: 80000},
	)
}

func selCC(root string, attr schema.AttrRef, lo, hi, count int64, name string) CC {
	return CC{
		Root:  root,
		Attrs: []schema.AttrRef{attr},
		Pred:  pred.DNF{Terms: []pred.Conjunct{pred.NewConjunct().With(0, pred.Range(lo, hi))}},
		Count: count,
		Name:  name,
	}
}

func TestIsSize(t *testing.T) {
	c := CC{Root: "S", Pred: pred.True(), Count: 700}
	if !c.IsSize() {
		t.Fatal("True predicate should be a size CC")
	}
	s := selCC("S", schema.AttrRef{Table: "S", Col: "A"}, 0, 10, 5, "x")
	if s.IsSize() {
		t.Fatal("selection CC is not a size CC")
	}
}

func TestValidate(t *testing.T) {
	s := toySchema()
	good := selCC("R", schema.AttrRef{Table: "S", Col: "A"}, 0, 10, 5, "join")
	if err := good.Validate(s); err != nil {
		t.Fatalf("join CC through FK closure must validate: %v", err)
	}
	cases := []CC{
		{Root: "Z", Pred: pred.True(), Name: "unknownRoot"},
		selCC("S", schema.AttrRef{Table: "R", Col: "x"}, 0, 1, 1, "outsideClosure"),
		selCC("S", schema.AttrRef{Table: "S", Col: "missing"}, 0, 1, 1, "unknownCol"),
		{Root: "S", Pred: pred.True(), Count: -1, Name: "negCount"},
		{Root: "S", Attrs: nil,
			Pred: pred.DNF{Terms: []pred.Conjunct{pred.NewConjunct().With(3, pred.Range(0, 1))}},
			Name: "badAttrID"},
	}
	for _, c := range cases {
		if err := c.Validate(s); err == nil {
			t.Errorf("CC %s should fail validation", c.Name)
		}
	}
}

func TestDedupe(t *testing.T) {
	a := selCC("S", schema.AttrRef{Table: "S", Col: "A"}, 0, 10, 5, "q1")
	b := selCC("S", schema.AttrRef{Table: "S", Col: "A"}, 0, 10, 5, "q2") // same shape
	c := selCC("S", schema.AttrRef{Table: "S", Col: "A"}, 0, 20, 9, "q3")
	w := &Workload{CCs: []CC{a, b, c}}
	w.Dedupe()
	if len(w.CCs) != 2 {
		t.Fatalf("deduped to %d, want 2", len(w.CCs))
	}
}

func TestByRootAndRoots(t *testing.T) {
	w := &Workload{CCs: []CC{
		{Root: "S", Pred: pred.True(), Count: 1},
		{Root: "R", Pred: pred.True(), Count: 2},
		{Root: "S", Pred: pred.True(), Count: 3},
	}}
	groups := w.ByRoot()
	if len(groups["S"]) != 2 || len(groups["R"]) != 1 {
		t.Fatalf("ByRoot wrong: %v", groups)
	}
	roots := w.Roots()
	if len(roots) != 2 || roots[0] != "R" || roots[1] != "S" {
		t.Fatalf("Roots = %v", roots)
	}
}

func TestCountHistogram(t *testing.T) {
	w := &Workload{CCs: []CC{
		{Count: 0}, {Count: 1}, {Count: 9},
		{Count: 10}, {Count: 99},
		{Count: 1_000_000},
	}}
	h := w.CountHistogram()
	if h[0] != 3 || h[1] != 2 || h[6] != 1 {
		t.Fatalf("histogram = %v", h)
	}
	if len(h) != 7 {
		t.Fatalf("histogram length = %d", len(h))
	}
}

func TestWorkloadValidate(t *testing.T) {
	s := toySchema()
	w := &Workload{CCs: []CC{
		{Root: "S", Pred: pred.True(), Count: 700, Name: "ok"},
		{Root: "Nope", Pred: pred.True(), Count: 1, Name: "bad"},
	}}
	if err := w.Validate(s); err == nil {
		t.Fatal("workload with bad CC must fail validation")
	}
}

// TestWorkloadValidateMatchesEachCC: a workload validates to the error of
// its first failing CC, as each CC's own Validate reports it, also when
// earlier CCs of the same root were valid and their closure is reused.
func TestWorkloadValidateMatchesEachCC(t *testing.T) {
	s := toySchema()
	ok := []CC{
		selCC("R", schema.AttrRef{Table: "S", Col: "A"}, 0, 10, 5, "join"),
		selCC("S", schema.AttrRef{Table: "S", Col: "A"}, 0, 10, 5, "local"),
		{Root: "R", Pred: pred.True(), Count: 80000, Name: "size"},
	}
	bad := []CC{
		{Root: "Z", Pred: pred.True(), Name: "unknownRoot"},
		selCC("S", schema.AttrRef{Table: "R", Col: "x"}, 0, 1, 1, "outsideClosure"),
		selCC("R", schema.AttrRef{Table: "S", Col: "missing"}, 0, 1, 1, "unknownCol"),
		{Root: "R", Pred: pred.True(), Count: -1, Name: "negCount"},
	}
	if err := (&Workload{CCs: ok}).Validate(s); err != nil {
		t.Fatal(err)
	}
	for _, b := range bad {
		for at := range len(ok) + 1 {
			ccs := append(append(append([]CC(nil), ok[:at]...), b), ok[at:]...)
			ccs = append(ccs, bad...)
			got, want := (&Workload{CCs: ccs}).Validate(s), b.Validate(s)
			if got == nil || want == nil || got.Error() != want.Error() {
				t.Errorf("%s at %d: workload error %v, CC error %v", b.Name, at, got, want)
			}
		}
	}
}
