package hydra_test

import (
	"fmt"
	"math"
	"testing"

	hydra "github.com/dsl-repro/hydra"
	"github.com/dsl-repro/hydra/internal/cc"
	"github.com/dsl-repro/hydra/internal/preprocess"
	"github.com/dsl-repro/hydra/internal/summary"
)

// evaluateByRemap is summary.Evaluate as it was before it read a CC's
// attributes through the view index: it scans the view's rows with a
// copy of each CC's predicate remapped onto view positions.
func evaluateByRemap(s *summary.Summary, views map[string]*preprocess.View, w *cc.Workload) ([]summary.CCReport, error) {
	out := make([]summary.CCReport, 0, len(w.CCs))
	for i := range w.CCs {
		c := &w.CCs[i]
		v, ok := views[c.Root]
		if !ok {
			return nil, fmt.Errorf("no view for %s", c.Root)
		}
		vs, ok := s.Views[c.Root]
		if !ok {
			return nil, fmt.Errorf("no view summary for %s", c.Root)
		}
		var got int64
		if c.IsSize() {
			got = vs.Total()
		} else {
			remap := make(map[int]int, len(c.Attrs))
			for id, a := range c.Attrs {
				p, ok := v.Index[a]
				if !ok {
					return nil, fmt.Errorf("attr %s not in view", a)
				}
				remap[id] = p
			}
			p := c.Pred.Remap(remap)
			for _, r := range vs.Rows {
				if p.Eval(r.Vals) {
					got += r.Count
				}
			}
		}
		rel := 0.0
		switch {
		case c.Count == got:
		case c.Count == 0:
			rel = math.Inf(1)
		default:
			rel = float64(got-c.Count) / float64(c.Count)
		}
		out = append(out, summary.CCReport{Name: c.Name, Root: c.Root, Want: c.Count, Got: got, RelErr: rel})
	}
	return out, nil
}

// TestEvaluateMatchesRemap: on every pinned input, Evaluate's report of
// every CC is the one the remapping loop gives.
func TestEvaluateMatchesRemap(t *testing.T) {
	for _, in := range pinnedInputs(t) {
		res, err := hydra.Regenerate(in.s, in.w, hydra.Config{})
		if err != nil {
			t.Fatal(err)
		}
		got, err := res.Evaluate(in.w)
		if err != nil {
			t.Fatal(err)
		}
		want, err := evaluateByRemap(res.Summary, res.Views, in.w)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(want) {
			t.Fatalf("%s: %d reports, want %d", in.name, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Errorf("%s: report %d is %+v, want %+v", in.name, i, got[i], want[i])
			}
		}
	}
}
