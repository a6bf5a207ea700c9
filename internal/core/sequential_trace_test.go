package core

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"github.com/dsl-repro/hydra/internal/lp"
)

// TestGroupTrace: a HYDRA_TRACE group line carries the group's columns
// after twin merging, its arithmetic, branch-and-bound nodes, pivots,
// math/big restarts and exact escalations, and its time to the
// microsecond, so a sub-millisecond solve does not read as 0s.
func TestGroupTrace(t *testing.T) {
	for _, tc := range []struct {
		sol  *lp.IntSolution
		err  error
		d    time.Duration
		want string
	}{
		{&lp.IntSolution{Exact: true, Nodes: 3, Pivots: 41, Cols: 17, Arith: lp.Rational, Restarts: 1}, nil, 532*time.Microsecond + 400,
			"[hydra-trace] view=R pass=1 group=2 members=3 vars=40 cols=17 arith=rational nodes=3 pivots=41 restarts=1 escalations=0 ok in 532µs"},
		{&lp.IntSolution{Nodes: 4000, Pivots: 9, Cols: 40, Arith: lp.Float, Escalations: 2}, nil, 2*time.Second + 1400,
			"[hydra-trace] view=R pass=1 group=2 members=3 vars=40 cols=40 arith=float nodes=4000 pivots=9 restarts=0 escalations=2 inexact in 2.000001s"},
		{nil, errors.New("infeasible"), 0,
			"[hydra-trace] view=R pass=1 group=2 members=3 vars=40 cols=0 arith=auto nodes=0 pivots=0 restarts=0 escalations=0 err:infeasible in 0s"},
	} {
		if got := groupTrace("R", 1, 2, 3, 40, tc.sol, tc.err, tc.d); got != tc.want {
			t.Errorf("got  %s\nwant %s", got, tc.want)
		}
	}
}

// TestViewTrace: a HYDRA_TRACE view line carries what the view is (CCs,
// attributes, sub-views, fill edges), its LP (variables, rows, CC rows,
// consistency rows), how its solve went (merges, soft, joint fallback) and
// both times to the microsecond.
func TestViewTrace(t *testing.T) {
	v := multiSubViewView(t)
	sol := &ViewSolution{View: v, Stats: ViewStats{
		Vars: 12, Rows: 9, CCRows: 4, ConsistencyRows: 3, SubViews: 2, FillEdges: 1,
		SolveTime: 830*time.Microsecond + 200, SequentialMerges: 1, Soft: true,
	}}
	want := fmt.Sprintf("[hydra-trace] view=%s ccs=%d attrs=%d subviews=2 fill=1 vars=12 rows=9 cc_rows=4 cons_rows=3 merges=1 soft=true fallback=false formulate=1.25ms solve=830µs",
		v.Table.Name, len(v.CCs), len(v.Attrs))
	if got := viewTrace(sol, 1250*time.Microsecond+300); got != want {
		t.Errorf("got  %s\nwant %s", got, want)
	}
}
