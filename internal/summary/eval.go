package summary

import (
	"fmt"
	"math"
	"sort"

	"github.com/dsl-repro/hydra/internal/cc"
	"github.com/dsl-repro/hydra/internal/preprocess"
)

// CCReport compares one CC's client-side count against the count the
// regenerated database attains. This is the volumetric-similarity metric of
// §7.1 (Fig. 10).
type CCReport struct {
	Name   string
	Root   string
	Want   int64
	Got    int64
	RelErr float64 // (Got-Want)/Want; 0 when both are 0; +Inf when Want==0 < Got
}

func relErr(want, got int64) float64 {
	if want == got {
		return 0
	}
	if want == 0 {
		return math.Inf(1)
	}
	return float64(got-want) / float64(want)
}

// Evaluate computes the achieved cardinality of every workload CC directly
// on the summary (no materialization needed): a CC's count is the tuple
// mass of the root view's summary rows satisfying the predicate. This is
// exactly what executing the plan over the generated database yields,
// because joins follow FKs whose targets carry the row's inherited
// attribute values.
func Evaluate(s *Summary, views map[string]*preprocess.View, w *cc.Workload) ([]CCReport, error) {
	out := make([]CCReport, 0, len(w.CCs))
	var at []int // at[id]: the view position of the CC's attribute id
	for i := range w.CCs {
		c := &w.CCs[i]
		v, ok := views[c.Root]
		if !ok {
			return nil, fmt.Errorf("summary: evaluate %s: no view for %s", c.Name, c.Root)
		}
		vs, ok := s.Views[c.Root]
		if !ok {
			return nil, fmt.Errorf("summary: evaluate %s: no view summary for %s", c.Name, c.Root)
		}
		var got int64
		if c.IsSize() {
			got = vs.Total()
		} else {
			at = at[:0]
			for _, a := range c.Attrs {
				p, ok := v.Index[a]
				if !ok {
					return nil, fmt.Errorf("summary: evaluate %s: attr %s not in view", c.Name, a)
				}
				at = append(at, p)
			}
			for _, r := range vs.Rows {
				if c.Pred.EvalAt(r.Vals, at) {
					got += r.Count
				}
			}
		}
		out = append(out, CCReport{
			Name: c.Name, Root: c.Root,
			Want: c.Count, Got: got,
			RelErr: relErr(c.Count, got),
		})
	}
	return out, nil
}

// ErrorCDF summarizes a report set the way Fig. 10 presents it: for each
// requested absolute relative-error threshold, the percentage of CCs whose
// |RelErr| is ≤ the threshold.
func ErrorCDF(reports []CCReport, thresholds []float64) []float64 {
	if len(reports) == 0 {
		return make([]float64, len(thresholds))
	}
	errs := make([]float64, len(reports))
	for i, r := range reports {
		errs[i] = math.Abs(r.RelErr)
	}
	sort.Float64s(errs)
	out := make([]float64, len(thresholds))
	for ti, th := range thresholds {
		n := sort.SearchFloat64s(errs, th+1e-12)
		out[ti] = 100 * float64(n) / float64(len(errs))
	}
	return out
}

// MaxAbsErr returns the largest absolute relative error in the report set
// (+Inf if any CC with Want==0 gained rows).
func MaxAbsErr(reports []CCReport) float64 {
	worst := 0.0
	for _, r := range reports {
		if a := math.Abs(r.RelErr); a > worst {
			worst = a
		}
	}
	return worst
}
