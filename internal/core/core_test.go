package core

import (
	"fmt"
	"slices"
	"testing"

	"github.com/dsl-repro/hydra/internal/cc"
	"github.com/dsl-repro/hydra/internal/lp"
	"github.com/dsl-repro/hydra/internal/pred"
	"github.com/dsl-repro/hydra/internal/preprocess"
	"github.com/dsl-repro/hydra/internal/schema"
)

// personView builds the §3.2 Person example as a preprocessed view.
func personView(t *testing.T) *preprocess.View {
	t.Helper()
	s := schema.MustNew(&schema.Table{
		Name: "Person",
		Cols: []schema.Column{
			{Name: "age", Min: 0, Max: 99},
			{Name: "salary", Min: 0, Max: 99999},
		},
		RowCount: 8000,
	})
	age := schema.AttrRef{Table: "Person", Col: "age"}
	sal := schema.AttrRef{Table: "Person", Col: "salary"}
	w := &cc.Workload{CCs: []cc.CC{
		{Root: "Person", Pred: pred.True(), Count: 8000, Name: "total"},
		{Root: "Person", Attrs: []schema.AttrRef{age, sal},
			Pred: pred.DNF{Terms: []pred.Conjunct{
				pred.NewConjunct().With(0, pred.AtMost(39)).With(1, pred.AtMost(39999)),
			}}, Count: 1000, Name: "cc1"},
		{Root: "Person", Attrs: []schema.AttrRef{age, sal},
			Pred: pred.DNF{Terms: []pred.Conjunct{
				pred.NewConjunct().With(0, pred.Range(20, 59)).With(1, pred.Range(20000, 59999)),
			}}, Count: 2000, Name: "cc2"},
	}}
	views, err := preprocess.BuildViews(s, w)
	if err != nil {
		t.Fatal(err)
	}
	return views["Person"]
}

func TestFormulatePersonMatchesPaper(t *testing.T) {
	f := Formulate(personView(t))
	// Figure 3b/4b: exactly 4 region variables, one sub-view.
	if f.Stats.Vars != 4 {
		t.Fatalf("vars = %d, want 4 (paper Fig. 3b)", f.Stats.Vars)
	}
	if f.Stats.SubViews != 1 {
		t.Fatalf("sub-views = %d, want 1", f.Stats.SubViews)
	}
	// Rows: 2 CC rows + 1 total row (paper Fig. 4b).
	if f.Stats.CCRows != 2 || f.Stats.Rows != 3 {
		t.Fatalf("ccRows=%d rows=%d, want 2/3", f.Stats.CCRows, f.Stats.Rows)
	}
}

func checkPersonSolution(t *testing.T, sol *ViewSolution) {
	t.Helper()
	// Verify CC satisfaction directly on region counts.
	v := personView(t)
	for ci, vcc := range v.CCs {
		var got int64
		for _, sv := range sol.SubViews {
			local := localIndex(sv.Attrs)
			p := vcc.Pred.Remap(local)
			for _, r := range sv.Rows {
				if p.Eval(r.Rep) {
					got += r.Count
				}
			}
			break // single sub-view covers everything here
		}
		if got != vcc.Count {
			t.Errorf("cc %d: got %d want %d", ci, got, vcc.Count)
		}
	}
	var total int64
	for _, r := range sol.SubViews[0].Rows {
		total += r.Count
	}
	if total != 8000 {
		t.Errorf("total mass %d, want 8000", total)
	}
}

func TestSolveJoint(t *testing.T) {
	sol, err := Formulate(personView(t)).Solve(Options{})
	if err != nil {
		t.Fatal(err)
	}
	checkPersonSolution(t, sol)
}

func TestSolveSequential(t *testing.T) {
	sol, err := Formulate(personView(t)).SolveSequential(Options{})
	if err != nil {
		t.Fatal(err)
	}
	if sol.Stats.SequentialFallback {
		t.Fatal("single-sub-view case must not need the joint fallback")
	}
	checkPersonSolution(t, sol)
}

// multiSubViewView builds a view whose CCs split into two overlapping
// sub-views {A,B} and {B,C}, exercising marker atoms, consistency rows and
// the align invariant.
func multiSubViewView(t *testing.T) *preprocess.View {
	t.Helper()
	s := schema.MustNew(&schema.Table{
		Name: "V",
		Cols: []schema.Column{
			{Name: "A", Min: 0, Max: 9}, {Name: "B", Min: 0, Max: 9}, {Name: "C", Min: 0, Max: 9},
		},
		RowCount: 100,
	})
	ref := func(c string) schema.AttrRef { return schema.AttrRef{Table: "V", Col: c} }
	w := &cc.Workload{CCs: []cc.CC{
		{Root: "V", Pred: pred.True(), Count: 100, Name: "total"},
		{Root: "V", Attrs: []schema.AttrRef{ref("A"), ref("B")},
			Pred: pred.DNF{Terms: []pred.Conjunct{
				pred.NewConjunct().With(0, pred.Range(0, 4)).With(1, pred.Range(0, 4)),
			}}, Count: 30, Name: "ab"},
		{Root: "V", Attrs: []schema.AttrRef{ref("B"), ref("C")},
			Pred: pred.DNF{Terms: []pred.Conjunct{
				pred.NewConjunct().With(0, pred.Range(0, 4)).With(1, pred.Range(5, 9)),
			}}, Count: 20, Name: "bc"},
		{Root: "V", Attrs: []schema.AttrRef{ref("B")},
			Pred: pred.DNF{Terms: []pred.Conjunct{
				pred.NewConjunct().With(0, pred.Range(0, 4)),
			}}, Count: 45, Name: "b"},
	}}
	views, err := preprocess.BuildViews(s, w)
	if err != nil {
		t.Fatal(err)
	}
	return views["V"]
}

func TestMultiSubViewConsistency(t *testing.T) {
	f := Formulate(multiSubViewView(t))
	if f.Stats.SubViews != 2 {
		t.Fatalf("sub-views = %d, want 2 ({A,B} and {B,C})", f.Stats.SubViews)
	}
	if f.Stats.ConsistencyRows == 0 {
		t.Fatal("expected consistency rows for the shared attribute B")
	}
	for _, solver := range []string{"joint", "sequential"} {
		var sol *ViewSolution
		var err error
		if solver == "joint" {
			sol, err = Formulate(multiSubViewView(t)).Solve(Options{})
		} else {
			sol, err = Formulate(multiSubViewView(t)).SolveSequential(Options{})
		}
		if err != nil {
			t.Fatalf("%s: %v", solver, err)
		}
		// Shared-attribute marginals must agree between the two sub-view
		// solutions per atom of B.
		masses := make([]map[int64]int64, len(sol.SubViews))
		for si, sv := range sol.SubViews {
			masses[si] = map[int64]int64{}
			bLocal := -1
			for i, a := range sv.Attrs {
				if personAttrIs(t, f, a, "B") {
					bLocal = i
				}
			}
			if bLocal == -1 {
				t.Fatalf("%s: sub-view %d lacks B", solver, si)
			}
			for _, r := range sv.Rows {
				masses[si][r.Rep[bLocal]] += r.Count
			}
		}
		for bv, m := range masses[0] {
			if masses[1][bv] != m {
				t.Fatalf("%s: marginal mismatch at B=%d: %d vs %d", solver, bv, m, masses[1][bv])
			}
		}
	}
}

func personAttrIs(t *testing.T, f *Formulation, attr int, col string) bool {
	t.Helper()
	return f.View.Attrs[attr].Col == col
}

func TestSequentialMatchesJointOnCCs(t *testing.T) {
	v := multiSubViewView(t)
	for _, joint := range []bool{true, false} {
		f := Formulate(v)
		solve := f.SolveSequential
		if joint {
			solve = f.Solve
		}
		sol, err := solve(Options{})
		if err != nil {
			t.Fatal(err)
		}
		// Every CC must be satisfied by the sub-view that covers it.
		for ci, vcc := range v.CCs {
			satisfied := false
			for _, sv := range sol.SubViews {
				local := map[int]int{}
				covered := true
				for i, a := range sv.Attrs {
					local[a] = i
				}
				for _, a := range vcc.Pred.Attrs() {
					if _, ok := local[a]; !ok {
						covered = false
						break
					}
				}
				if !covered {
					continue
				}
				p := vcc.Pred.Remap(local)
				var got int64
				for _, r := range sv.Rows {
					if p.Eval(r.Rep) {
						got += r.Count
					}
				}
				if got == vcc.Count {
					satisfied = true
				} else {
					t.Errorf("joint=%v cc %d (%s): got %d want %d", joint, ci, vcc.Name, got, vcc.Count)
				}
			}
			if !satisfied {
				t.Errorf("joint=%v cc %d not satisfied in any covering sub-view", joint, ci)
			}
		}
	}
}

// conflictView builds a view whose clique-tree structure makes a greedy
// per-sub-view solve likely to paint later sub-views into corners: CC1
// lives in clique {x,z}, CC2 in {x,y}, and x's consistency atoms leave the
// first clique free to allocate mass where the second cannot use it. The
// sequential solver must converge regardless (via group merging).
func conflictView(t *testing.T, k int64) *preprocess.View {
	t.Helper()
	s := schema.MustNew(&schema.Table{
		Name: "W",
		Cols: []schema.Column{
			{Name: "x", Min: 0, Max: 99},
			{Name: "y", Min: 0, Max: 99},
			{Name: "z", Min: 0, Max: 99},
		},
		RowCount: 100,
	})
	ref := func(c string) schema.AttrRef { return schema.AttrRef{Table: "W", Col: c} }
	w := &cc.Workload{CCs: []cc.CC{
		{Root: "W", Pred: pred.True(), Count: 100, Name: "total"},
		{Root: "W", Attrs: []schema.AttrRef{ref("x"), ref("z")},
			Pred: pred.DNF{Terms: []pred.Conjunct{
				pred.NewConjunct().With(0, pred.Range(0, 9)).With(1, pred.Range(0, 49)),
			}}, Count: 40, Name: "xz"},
		{Root: "W", Attrs: []schema.AttrRef{ref("x"), ref("y")},
			Pred: pred.DNF{Terms: []pred.Conjunct{
				pred.NewConjunct().With(0, pred.Range(5, 19)).With(1, pred.Range(0, 49)),
			}}, Count: k, Name: "xy"},
	}}
	views, err := preprocess.BuildViews(s, w)
	if err != nil {
		t.Fatal(err)
	}
	return views["W"]
}

func TestSequentialConvergesOnConflict(t *testing.T) {
	for _, k := range []int64{10, 35, 60, 90} {
		v := conflictView(t, k)
		sol, err := FormulateAndSolve(v, Options{})
		if err != nil {
			t.Fatalf("k=%d: %v", k, err)
		}
		if sol.Stats.Soft {
			t.Fatalf("k=%d: feasible system must not need soft solve", k)
		}
		// Verify both CCs exactly against the covering sub-views.
		for ci, vcc := range v.CCs {
			for _, sv := range sol.SubViews {
				local := map[int]int{}
				for i, a := range sv.Attrs {
					local[a] = i
				}
				covered := true
				for _, a := range vcc.Pred.Attrs() {
					if _, ok := local[a]; !ok {
						covered = false
					}
				}
				if !covered {
					continue
				}
				p := vcc.Pred.Remap(local)
				var got int64
				for _, r := range sv.Rows {
					if p.Eval(r.Rep) {
						got += r.Count
					}
				}
				if got != vcc.Count {
					t.Errorf("k=%d cc %d: got %d want %d (merges=%d fallback=%v)",
						k, ci, got, vcc.Count, sol.Stats.SequentialMerges, sol.Stats.SequentialFallback)
				}
			}
		}
	}
}

func TestEmptyView(t *testing.T) {
	s := schema.MustNew(&schema.Table{Name: "E", RowCount: 42})
	views, err := preprocess.BuildViews(s, &cc.Workload{})
	if err != nil {
		t.Fatal(err)
	}
	sol, err := FormulateAndSolve(views["E"], Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(sol.SubViews) != 0 && len(sol.SubViews[0].Attrs) != 0 {
		t.Fatalf("empty view should have trivial decomposition: %+v", sol.SubViews)
	}
}

func TestZeroTotal(t *testing.T) {
	s := schema.MustNew(&schema.Table{
		Name: "Z", Cols: []schema.Column{{Name: "x", Min: 0, Max: 9}}, RowCount: 0,
	})
	w := &cc.Workload{CCs: []cc.CC{
		{Root: "Z", Pred: pred.True(), Count: 0, Name: "size"},
	}}
	views, err := preprocess.BuildViews(s, w)
	if err != nil {
		t.Fatal(err)
	}
	sol, err := FormulateAndSolve(views["Z"], Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, sv := range sol.SubViews {
		if len(sv.Rows) != 0 {
			t.Fatal("zero-total view must have no populated regions")
		}
	}
}

func TestSubViewInputsExported(t *testing.T) {
	inputs := SubViewInputs(multiSubViewView(t))
	if len(inputs) != 2 {
		t.Fatalf("inputs = %d", len(inputs))
	}
	for _, in := range inputs {
		if len(in.Cons) != len(in.CCIdx) {
			t.Fatal("Cons and CCIdx must align")
		}
		markers := 0
		for _, ci := range in.CCIdx {
			if ci == -1 {
				markers++
			}
		}
		if markers == 0 {
			t.Fatal("shared attribute B should contribute marker atoms")
		}
	}
}

func TestSolveStrictInfeasible(t *testing.T) {
	v := personView(t)
	v.CCs[0].Count = 100000 // cc1 asks for more than Total
	v.Total = 500
	_, err := Formulate(v).Solve(Options{NoSoftFallback: true})
	if err == nil {
		t.Fatal("strict mode must surface infeasibility")
	}
	// Soft mode produces a best-effort solution.
	sol, err := Formulate(v).Solve(Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !sol.Stats.Soft || sol.Stats.SoftResidual == 0 {
		t.Fatal("soft solve should record a residual")
	}
}

var _ = lp.Auto // keep the import for option literals in future edits

// chainView builds a view whose CCs decompose into the chain of sub-views
// {A,B}, {B,C}, {C,D}, with both separators cut into several atoms, so each
// sequential group LP carries a handful of separator rows. Counts are those
// of the full 10×10×10×10 grid, hence consistent.
func chainView(t *testing.T) *preprocess.View {
	t.Helper()
	cols := []string{"A", "B", "C", "D"}
	tab := &schema.Table{Name: "G", RowCount: 10000}
	for _, c := range cols {
		tab.Cols = append(tab.Cols, schema.Column{Name: c, Min: 0, Max: 9})
	}
	s := schema.MustNew(tab)
	w := &cc.Workload{CCs: []cc.CC{{Root: "G", Pred: pred.True(), Count: 10000, Name: "total"}}}
	ranges := [][4]int64{{0, 1, 2, 4}, {3, 6, 0, 3}, {2, 8, 5, 6}, {7, 9, 3, 9}, {0, 5, 7, 8}, {4, 4, 1, 5}}
	for pair := 0; pair < 3; pair++ {
		for i, r := range ranges {
			w.CCs = append(w.CCs, cc.CC{
				Root:  "G",
				Attrs: []schema.AttrRef{{Table: "G", Col: cols[pair]}, {Table: "G", Col: cols[pair+1]}},
				Pred: pred.DNF{Terms: []pred.Conjunct{
					pred.NewConjunct().With(0, pred.Range(r[0], r[1])).With(1, pred.Range(r[2], r[3])),
				}},
				Count: (r[1] - r[0] + 1) * (r[3] - r[2] + 1) * 100,
				Name:  fmt.Sprintf("%s%s%d", cols[pair], cols[pair+1], i),
			})
		}
	}
	views, err := preprocess.BuildViews(s, w)
	if err != nil {
		t.Fatal(err)
	}
	return views["G"]
}

// The LP of a sequential group must not depend on map iteration order: the
// pivot path, and with it the vertex, would differ from run to run.
func TestSolveSequentialDeterministic(t *testing.T) {
	var first *ViewSolution
	for call := 0; call < 8; call++ {
		f := Formulate(chainView(t))
		if f.Stats.SubViews < 3 {
			t.Fatalf("sub-views = %d, want the three-clique chain", f.Stats.SubViews)
		}
		sol, err := f.SolveSequential(Options{})
		if err != nil {
			t.Fatal(err)
		}
		if sol.Stats.SequentialFallback {
			t.Fatal("fell back to the joint LP; the test no longer exercises group LPs")
		}
		if first == nil {
			first = sol
			continue
		}
		if sol.Stats.Pivots != first.Stats.Pivots || sol.Stats.Nodes != first.Stats.Nodes {
			t.Fatalf("call %d: %d pivots / %d nodes, first call %d / %d",
				call, sol.Stats.Pivots, sol.Stats.Nodes, first.Stats.Pivots, first.Stats.Nodes)
		}
		for si, sv := range sol.SubViews {
			want := first.SubViews[si].Rows
			if len(sv.Rows) != len(want) {
				t.Fatalf("call %d: sub-view %d has %d populated regions, first call %d", call, si, len(sv.Rows), len(want))
			}
			for ri, r := range sv.Rows {
				if r.Count != want[ri].Count || !slices.Equal(r.Rep, want[ri].Rep) {
					t.Fatalf("call %d: sub-view %d region %d = %v×%d, first call %v×%d",
						call, si, ri, r.Rep, r.Count, want[ri].Rep, want[ri].Count)
				}
			}
		}
	}
}
