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

// oracleView draws a view of 3–6 attributes over domains of about 12
// values and 3–10 CCs of 1–3 attributes and 1–2 conjuncts, whose counts
// are measured on a 300-row data set drawn with it: the view's LP is
// feasible by construction.
func oracleView(rng *rand.Rand, name string) *preprocess.View {
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
				// Bounds on a grid of two keep the LPs small: free
				// bounds make a few views of thousands of regions that
				// take seconds of branch and bound each.
				top := v.Domains[a].Max()
				lo := rng.Int63n(top/2 + 1)
				hi := lo + rng.Int63n(top/2+1-lo)
				k = k.With(a, pred.Range(2*lo, min(2*hi+1, top)))
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
		v := oracleView(rng, fmt.Sprintf("v%d", i))
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
