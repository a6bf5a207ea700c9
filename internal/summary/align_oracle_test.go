package summary

import (
	"fmt"
	"math/rand"
	"testing"

	"github.com/dsl-repro/hydra/internal/core"
	"github.com/dsl-repro/hydra/internal/pred"
	"github.com/dsl-repro/hydra/internal/preprocess"
	"github.com/dsl-repro/hydra/internal/schema"
)

// boundShape draws the interval a conjunct places on an attribute whose
// domain is [0, top].
type boundShape func(rng *rand.Rand, top int64) pred.Set

// gridOfTwo puts both bounds on a grid of two. It keeps the LPs small:
// free bounds make a few views of thousands of regions that take a second
// or more of branch and bound each.
func gridOfTwo(rng *rand.Rand, top int64) pred.Set {
	lo := rng.Int63n(top/2 + 1)
	hi := lo + rng.Int63n(top/2+1-lo)
	return pred.Range(2*lo, min(2*hi+1, top))
}

// freeBounds puts the bounds anywhere in the domain.
func freeBounds(rng *rand.Rand, top int64) pred.Set {
	lo := rng.Int63n(top + 1)
	hi := lo + rng.Int63n(top+1-lo)
	return pred.Range(lo, hi)
}

// oracleView draws a view of 3–6 attributes over domains of about 12
// values and 3–10 CCs of 1–3 attributes and 1–2 conjuncts with bounds of
// the given shape, whose counts are measured on a 300-row data set drawn
// with it: the view's LP is feasible by construction.
func oracleView(rng *rand.Rand, name string, bounds boundShape) *preprocess.View {
	const rows = 300
	n := 3 + rng.Intn(4)
	v := &preprocess.View{Table: &schema.Table{Name: name}, Total: rows}
	for a := range n {
		v.Attrs = append(v.Attrs, schema.AttrRef{Table: name, Col: fmt.Sprintf("a%d", a)})
		v.Domains = append(v.Domains, pred.Range(0, int64(10+rng.Intn(5))))
	}
	data := make([][]int64, rows)
	for i := range data {
		data[i] = make([]int64, n)
		for a, d := range v.Domains {
			data[i][a] = rng.Int63n(d.Max() + 1)
		}
	}
	for c := range 3 + rng.Intn(8) {
		attrs := rng.Perm(n)[:1+rng.Intn(3)]
		var p pred.DNF
		for range 1 + rng.Intn(2) {
			k := pred.NewConjunct()
			for _, a := range attrs {
				k = k.With(a, bounds(rng, v.Domains[a].Max()))
			}
			p.Terms = append(p.Terms, k)
		}
		var count int64
		for _, row := range data {
			if p.Eval(row) {
				count++
			}
		}
		v.CCs = append(v.CCs, preprocess.ViewCC{Pred: p, Count: count, Name: fmt.Sprintf("c%d", c)})
	}
	return v
}

// TestAlignMeetsEveryCC is an oracle for the align-and-merge of §5.1 on
// generated views: every view the decomposed solver solves without the
// soft or the joint fallback must come out of BuildView with every CC's
// count over the view rows equal to its target, and rows summing to the
// view's total. A consistency partition Π_S too coarse for the merge to
// pair rows by value (say, Algorithm 1 on the two endpoints' conjuncts
// only) leaves rows unpaired and fails it.
func TestAlignMeetsEveryCC(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	views := 1500
	if testing.Short() {
		views = 300
	}
	var checked, multi int
	for i := range views {
		v := oracleView(rng, fmt.Sprintf("v%d", i), gridOfTwo)
		sol, err := core.FormulateAndSolve(v, core.Options{NoSoftFallback: true})
		if err != nil || sol.Stats.Soft || sol.Stats.SequentialFallback {
			continue
		}
		vs, err := BuildView(v, sol)
		if err != nil {
			t.Fatalf("view %d: %v", i, err)
		}
		checked++
		if len(sol.SubViews) > 1 {
			multi++
		}
		if vs.Total() != v.Total {
			t.Errorf("view %d (%d sub-views): rows sum to %d, want %d", i, len(sol.SubViews), vs.Total(), v.Total)
		}
		for _, c := range v.CCs {
			var got int64
			for _, r := range vs.Rows {
				if c.Pred.Eval(r.Vals) {
					got += r.Count
				}
			}
			if got != c.Count {
				t.Errorf("view %d (%d sub-views): CC %s %v counts %d, want %d", i, len(sol.SubViews), c.Name, c.Pred, got, c.Count)
			}
		}
	}
	t.Logf("%d of %d views checked, %d of them with more than one sub-view", checked, views, multi)
	if checked < views*9/10 || multi < checked/2 {
		t.Fatalf("only %d of %d views checked, %d with more than one sub-view", checked, views, multi)
	}
}

// TestFreeBoundsViewSolvesDecomposed is the view that made the oracle put
// its bounds on a grid: view 2 of seed 61 with free bounds (6 attributes,
// 9 CCs, 2 sub-views). Its merged group of 3 222 columns took 322
// branch-and-bound nodes and 238 098 pivots, hit the node limit and fell
// back to the joint LP while relaxations without an objective still
// evicted the artificials Phase I left basic at zero. Ending them at Phase
// I's basis solves it decomposed, and BuildView must then meet every CC.
func TestFreeBoundsViewSolvesDecomposed(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	var v *preprocess.View
	for i := range 3 {
		v = oracleView(rng, fmt.Sprintf("v%d", i), freeBounds)
	}
	if len(v.Attrs) != 6 || len(v.CCs) != 9 {
		t.Fatalf("drew %d attributes and %d CCs, want 6 and 9", len(v.Attrs), len(v.CCs))
	}
	sol, err := core.FormulateAndSolve(v, core.Options{NoSoftFallback: true})
	if err != nil {
		t.Fatal(err)
	}
	if st := sol.Stats; st.Soft || st.SequentialFallback || st.SubViews != 2 {
		t.Fatalf("soft %v, joint fallback %v, %d sub-views; want a decomposed solve of 2", st.Soft, st.SequentialFallback, st.SubViews)
	}
	if st := sol.Stats; st.Nodes != 107 || st.Pivots != 29119 {
		t.Errorf("%d nodes and %d pivots, want 107 and 29 119", st.Nodes, st.Pivots)
	}
	vs, err := BuildView(v, sol)
	if err != nil {
		t.Fatal(err)
	}
	if vs.Total() != v.Total {
		t.Errorf("rows sum to %d, want %d", vs.Total(), v.Total)
	}
	for _, c := range v.CCs {
		var got int64
		for _, r := range vs.Rows {
			if c.Pred.Eval(r.Vals) {
				got += r.Count
			}
		}
		if got != c.Count {
			t.Errorf("CC %s %v counts %d, want %d", c.Name, c.Pred, got, c.Count)
		}
	}
}
