package core

import (
	"fmt"
	"os"
	"time"

	"github.com/dsl-repro/hydra/internal/lp"
)

// traceSequential enables per-group and per-view solver tracing to
// stderr when the HYDRA_TRACE environment variable is non-empty.
var traceSequential = os.Getenv("HYDRA_TRACE") != ""

// SolveSequential solves the view's sub-views along the clique tree
// instead of as one joint LP: each sub-view's problem contains its own CC
// rows and total, plus equality rows pinning its separator marginals to
// the already-solved parent values.
//
// The decomposition is not complete — a greedy parent assignment can paint
// a descendant into an infeasible corner — so failures trigger *group
// merging*: the failing sub-view is fused with its parent's group and the
// (cheap) pass restarts, with fused groups solved as one LP including
// their internal consistency rows. In the worst case every sub-view fuses
// into a single group, which is exactly the joint LP; in practice groups
// stay tiny and wide fact views solve in milliseconds instead of minutes.
// The trade-off is measured by BenchmarkAblation_JointVsSequential.
func (f *Formulation) SolveSequential(opts Options) (*ViewSolution, error) {
	elapsed := stopwatch()
	n := len(f.cliques)
	if n == 0 {
		f.Stats.SolveTime = elapsed()
		return &ViewSolution{View: f.View, Stats: f.Stats}, nil
	}

	// Parent edge per sub-view position (preorder ⇒ parent solved first).
	parentEdge := make(map[int]svEdge, len(f.edges))
	for _, e := range f.edges {
		parentEdge[e.child] = e
	}

	// group[i] is the group root of sub-view i (union-find with path
	// halving; roots are the smallest preorder position in the group).
	group := make([]int, n)
	for i := range group {
		group[i] = i
	}
	find := func(i int) int {
		for group[i] != i {
			group[i] = group[group[i]]
			i = group[i]
		}
		return i
	}
	union := func(a, b int) {
		ra, rb := find(a), find(b)
		if ra > rb {
			ra, rb = rb, ra
		}
		group[rb] = ra
	}

	nodesTotal, pivotsTotal := 0, 0
	counts := make([][]int64, n)
	// One tableau memory for every group and merge pass of the view.
	ws, done := opts.workspace()
	defer done()

	const maxPasses = 64 // ≥ n merges can never be needed; belt and braces
	for pass := 0; ; pass++ {
		if pass > maxPasses || pass > n {
			// Every merge reduces the group count, so this is
			// unreachable; fall back to the joint solve for safety.
			vs, jerr := f.Solve(opts)
			if jerr != nil {
				return nil, fmt.Errorf("core: view %s: sequential merging did not converge and joint solving failed: %w", f.View.Table.Name, jerr)
			}
			vs.Stats.SequentialFallback = true
			return vs, nil
		}
		members := make(map[int][]int, n)
		for i := 0; i < n; i++ {
			r := find(i)
			members[r] = append(members[r], i)
		}
		failedAt := -1
		for root := 0; root < n && failedAt == -1; root++ {
			ms, ok := members[root]
			if !ok {
				continue
			}
			gElapsed := stopwatch()
			sol, err := f.solveGroup(ms, parentEdge, counts, opts, ws)
			if traceSequential {
				nv := 0
				for _, m := range ms {
					nv += len(f.regions[m])
				}
				fmt.Fprintln(os.Stderr, groupTrace(f.View.Table.Name, pass, root, len(ms), nv, sol, err, gElapsed()))
			}
			if err != nil || !sol.Exact {
				failedAt = root
				break
			}
			// Scatter the group solution into per-sub-view counts.
			base := 0
			for _, m := range ms {
				counts[m] = sol.X[base : base+len(f.regions[m])]
				base += len(f.regions[m])
			}
			nodesTotal += sol.Nodes
			pivotsTotal += sol.Pivots
		}
		if failedAt == -1 {
			break // all groups solved
		}
		// Merge the failing group with its parent's group and retry. A
		// failing root group (no parent edge) means the CC system itself
		// is infeasible at view level: defer to the joint path, whose
		// soft fallback produces the best-effort answer.
		e, ok := parentEdge[failedAt]
		if !ok || find(e.parent) == find(failedAt) {
			vs, jerr := f.Solve(opts)
			if jerr != nil {
				return nil, fmt.Errorf("core: view %s: sequential and joint solving failed: %w", f.View.Table.Name, jerr)
			}
			vs.Stats.SequentialFallback = true
			return vs, nil
		}
		union(e.parent, failedAt)
		f.Stats.SequentialMerges++
	}

	f.Stats.SolveTime = elapsed()
	f.Stats.Nodes = nodesTotal
	f.Stats.Pivots = pivotsTotal
	vs := &ViewSolution{View: f.View, Stats: f.Stats}
	for si, cl := range f.cliques {
		sv := SubViewSolution{Attrs: cl, AllRegions: len(f.regions[si])}
		for ri, r := range f.regions[si] {
			if counts[si][ri] > 0 {
				sv.Rows = append(sv.Rows, RegionCount{Region: r, Rep: r.Rep(), Count: counts[si][ri]})
			}
		}
		vs.SubViews = append(vs.SubViews, sv)
	}
	vs.Stats = f.Stats
	return vs, nil
}

// solveGroup formulates and solves the LP of one group: per-member CC rows
// and totals, internal consistency rows for tree edges within the group,
// pinned separator marginals for edges whose parent lies outside (always
// already solved, by preorder).
func (f *Formulation) solveGroup(ms []int, parentEdge map[int]svEdge, counts [][]int64, opts Options, ws *lp.Workspace) (*lp.IntSolution, error) {
	inGroup := make(map[int]bool, len(ms))
	base := make(map[int]int, len(ms))
	nv := 0
	for _, m := range ms {
		inGroup[m] = true
		base[m] = nv
		nv += len(f.regions[m])
	}
	prob := &lp.Problem{NumVars: nv}

	for _, m := range ms {
		// CC rows.
		for bit, ci := range f.ccBits[m] {
			if ci == -1 {
				continue
			}
			var vars []int
			for ri, r := range f.regions[m] {
				if r.Label.Has(bit) {
					vars = append(vars, base[m]+ri)
				}
			}
			prob.AddEq(vars, f.View.CCs[ci].Count, fmt.Sprintf("%s@sv%d", f.View.CCs[ci].Name, m))
		}
		// Total row.
		all := make([]int, len(f.regions[m]))
		for ri := range all {
			all[ri] = base[m] + ri
		}
		prob.AddEq(all, f.View.Total, fmt.Sprintf("total@sv%d", m))
		// Separator rows toward the parent.
		e, ok := parentEdge[m]
		if !ok {
			continue
		}
		for _, c := range e.cells {
			if inGroup[e.parent] {
				// Internal edge: equate marginals between the two members.
				prob.AddRow(lp.Row{Entries: c.balance(base[m], base[e.parent]), Rel: lp.EQ, RHS: 0, Name: fmt.Sprintf("cons@sv%d~sv%d", m, e.parent)})
			} else {
				// External edge: the parent is solved; pin the marginals.
				var msum int64
				for _, ri := range c.parent {
					msum += counts[e.parent][ri]
				}
				vars := make([]int, len(c.child))
				for i, ri := range c.child {
					vars[i] = base[m] + ri
				}
				prob.AddEq(vars, msum, fmt.Sprintf("sep@sv%d:%x", m, c.key))
			}
		}
	}
	// Deliberately no speculative constraints from outside the group:
	// earlier designs injected implied projections of later CCs as ≥
	// bounds, but inequality rows push the relaxation optimum onto
	// fractional vertices and branch and bound burns its budget there.
	// Failing fast and letting the caller merge groups converges much
	// faster and is exact by construction.
	// Small budget per group: exhaustion is a signal to merge, not to
	// search deeper.
	return lp.SolveInteger(prob, lp.IntOptions{Backend: opts.Backend, MaxNodes: 256, Workspace: ws})
}

func localIndex(clique []int) map[int]int {
	out := make(map[int]int, len(clique))
	for i, a := range clique {
		out[a] = i
	}
	return out
}

// groupTrace is the HYDRA_TRACE line of one solved group: its size, the
// columns left once twin variables merge, the arithmetic its relaxations
// ran in, the branch-and-bound nodes and simplex pivots its solve took,
// how many exact relaxations restarted on math/big after a word overflow
// and how many float ones escalated to exact arithmetic, how it ended and
// how long it took to the microsecond — most groups solve in well under a
// millisecond.
func groupTrace(view string, pass, root, members, vars int, sol *lp.IntSolution, err error, d time.Duration) string {
	status := "ok"
	var s lp.IntSolution
	if sol != nil {
		s = *sol
	}
	if err != nil {
		status = "err:" + err.Error()
	} else if !sol.Exact {
		status = "inexact"
	}
	return fmt.Sprintf("[hydra-trace] view=%s pass=%d group=%d members=%d vars=%d cols=%d arith=%s nodes=%d pivots=%d restarts=%d escalations=%d %s in %v",
		view, pass, root, members, vars, s.Cols, s.Arith, s.Nodes, s.Pivots, s.Restarts, s.Escalations, status, d.Round(time.Microsecond))
}

// viewTrace is the HYDRA_TRACE line of one solved view, printed after its
// group lines: the view's size (CCs, attributes, sub-views, chordal fill
// edges), its LP (variables, rows, CC rows, consistency rows), how the
// solve went (group merges, soft fallback, joint fallback) and the time
// formulating and solving took.
func viewTrace(sol *ViewSolution, formulate time.Duration) string {
	st := sol.Stats
	return fmt.Sprintf("[hydra-trace] view=%s ccs=%d attrs=%d subviews=%d fill=%d vars=%d rows=%d cc_rows=%d cons_rows=%d merges=%d soft=%t fallback=%t formulate=%v solve=%v",
		sol.View.Table.Name, len(sol.View.CCs), len(sol.View.Attrs), st.SubViews, st.FillEdges,
		st.Vars, st.Rows, st.CCRows, st.ConsistencyRows, st.SequentialMerges, st.Soft, st.SequentialFallback,
		formulate.Round(time.Microsecond), st.SolveTime.Round(time.Microsecond))
}
