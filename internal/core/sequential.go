package core

import (
	"errors"
	"fmt"
	"os"
	"slices"
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
//
// A pass keeps the solution of a group whose members did not change and
// whose parent group (the one it reads separator marginals from) still
// holds the solution it read: the group's LP is the same as when it was
// solved, and so is its vertex. Only the groups a merge touched, and the
// ones below them, are solved again.
func (f *Formulation) SolveSequential(opts Options) (*ViewSolution, error) {
	elapsed := stopwatch()
	n := len(f.cliques)
	if n == 0 {
		f.Stats.SolveTime = elapsed()
		return f.solution(nil), nil
	}

	// Parent edge per sub-view position (preorder ⇒ parent solved first).
	parentEdge := make([]*svEdge, n)
	for i := range f.edges {
		parentEdge[f.edges[i].child] = &f.edges[i]
	}

	// group[i] is the group root of sub-view i (union-find with path
	// halving; roots are the smallest preorder position in the group).
	// Groups only ever fuse a group with its parent's, so each is a
	// connected subtree whose root is its top: only the root has a parent
	// outside the group, and that parent's group has a smaller root.
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

	// solved[r] numbers the solution group r holds (0: none), and read[r]
	// is the number of the parent group's solution it was solved against.
	solved, read := make([]int, n), make([]int, n)
	serial := 0
	nodesTotal, pivotsTotal := 0, 0
	counts := make([][]int64, n)
	members := make([][]int, n)
	// One tableau memory and one row buffer for every group and merge
	// pass of the view.
	mem, done := opts.memory()
	defer done()
	b := &mem.group
	b.base = slices.Grow(b.base[:0], n)[:n]
	for i := range b.base {
		b.base[i] = -1
	}

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
		f.Stats.SequentialPasses++
		for i := range members {
			members[i] = members[i][:0]
		}
		for i := 0; i < n; i++ {
			r := find(i)
			members[r] = append(members[r], i)
		}
		failedAt := -1
		var failure error
		for root := 0; root < n; root++ {
			ms := members[root]
			if len(ms) == 0 {
				continue
			}
			in := 0 // the parent group's solution this group reads
			if e := parentEdge[root]; e != nil {
				in = solved[find(e.parent)]
			}
			if solved[root] != 0 && read[root] == in {
				f.Stats.KeptGroups++
				continue
			}
			gElapsed := stopwatch()
			sol, err := f.solveGroup(b, ms, parentEdge, counts, opts, &mem.ws)
			if traceSequential {
				fmt.Fprintln(os.Stderr, groupTrace(f.View.Table.Name, pass, root, len(ms), b.prob.NumVars, sol, err, gElapsed()))
			}
			if sol != nil {
				pivotsTotal += sol.Pivots // a failed group's solve pivoted too
			}
			if err == nil && !sol.Exact {
				err = errInexact
			}
			if err != nil {
				solved[root] = 0
				failedAt = root
				failure = fmt.Errorf("core: view %s pass %d group %d: %w", f.View.Table.Name, pass, root, err)
				break
			}
			// Scatter the group solution into per-sub-view counts.
			base := 0
			for _, m := range ms {
				counts[m] = sol.X[base : base+len(f.regions[m])]
				base += len(f.regions[m])
			}
			nodesTotal += sol.Nodes
			serial++
			solved[root], read[root] = serial, in
		}
		if failedAt == -1 {
			break // all groups solved
		}
		// Merge the failing group with its parent's group and retry. A
		// failing root group (no parent edge) means the CC system itself
		// is infeasible at view level: defer to the joint path, whose
		// soft fallback produces the best-effort answer.
		e := parentEdge[failedAt]
		if e == nil || find(e.parent) == find(failedAt) {
			vs, jerr := f.Solve(opts)
			if jerr != nil {
				return nil, fmt.Errorf("%w; joint solving failed: %w", failure, jerr)
			}
			vs.Stats.SequentialFallback = true
			return vs, nil
		}
		// The parent's group gains members: its solution no longer holds.
		pr := find(e.parent)
		group[failedAt] = pr
		solved[pr] = 0
		f.Stats.SequentialMerges++
	}

	f.Stats.SolveTime = elapsed()
	f.Stats.Nodes = nodesTotal
	f.Stats.Pivots = pivotsTotal
	return f.solution(counts), nil
}

// errInexact is the failure of a group whose branch and bound stopped on
// an assignment that does not satisfy its rows exactly.
var errInexact = errors.New("no exact integer solution within the node budget")

// groupLP is the LP of one sequential group, assembled in buffers that
// the view's groups and passes reuse: every row's entries are a window of
// one entry slice.
type groupLP struct {
	prob    lp.Problem
	entries []lp.Entry
	base    []int // base[m]: variable id of member m's first region; -1 outside the group
}

// row closes the row whose entries were appended since from.
func (b *groupLP) row(from int, rhs int64) {
	b.prob.Rows = append(b.prob.Rows, lp.Row{Entries: b.entries[from:len(b.entries):len(b.entries)], Rel: lp.EQ, RHS: rhs})
}

// solveGroup formulates and solves the LP of one group: per-member CC rows
// and totals, internal consistency rows for tree edges within the group,
// pinned separator marginals for edges whose parent lies outside (always
// already solved, by preorder). The rows carry no names; a failure is
// named by view, pass and group.
func (f *Formulation) solveGroup(b *groupLP, ms []int, parentEdge []*svEdge, counts [][]int64, opts Options, ws *lp.Workspace) (*lp.IntSolution, error) {
	nv, nrows, nentries := 0, 0, 0
	for _, m := range ms {
		b.base[m] = nv
		nv += len(f.regions[m])
		nrows += len(f.ccRows[m]) + 1
		for _, r := range f.ccRows[m] {
			nentries += len(r.regions)
		}
		nentries += len(f.regions[m])
		if e := parentEdge[m]; e != nil {
			nrows += len(e.cells)
			for _, c := range e.cells {
				nentries += len(c.child) + len(c.parent)
			}
		}
	}
	defer func() {
		for _, m := range ms {
			b.base[m] = -1
		}
	}()
	// The rows are windows of b.entries, so it must not grow while they
	// are made: size it first.
	b.prob = lp.Problem{NumVars: nv, Rows: slices.Grow(b.prob.Rows[:0], nrows)}
	b.entries = slices.Grow(b.entries[:0], nentries)

	for _, m := range ms {
		base := b.base[m]
		// CC rows.
		for _, r := range f.ccRows[m] {
			from := len(b.entries)
			for _, ri := range r.regions {
				b.entries = append(b.entries, lp.Entry{Var: base + ri, Coef: 1})
			}
			b.row(from, f.View.CCs[r.cc].Count)
		}
		// Total row.
		from := len(b.entries)
		for ri := range f.regions[m] {
			b.entries = append(b.entries, lp.Entry{Var: base + ri, Coef: 1})
		}
		b.row(from, f.View.Total)
		// Separator rows toward the parent.
		e := parentEdge[m]
		if e == nil {
			continue
		}
		for _, c := range e.cells {
			from := len(b.entries)
			if pb := b.base[e.parent]; pb != -1 {
				// Internal edge: equate marginals between the two members.
				b.entries = c.appendBalance(b.entries, base, pb)
				b.row(from, 0)
				continue
			}
			// External edge: the parent is solved; pin the marginals.
			var msum int64
			for _, ri := range c.parent {
				msum += counts[e.parent][ri]
			}
			for _, ri := range c.child {
				b.entries = append(b.entries, lp.Entry{Var: base + ri, Coef: 1})
			}
			b.row(from, msum)
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
	return lp.SolveInteger(&b.prob, lp.IntOptions{Backend: opts.Backend, MaxNodes: 256, Workspace: ws})
}

// groupTrace is the HYDRA_TRACE line of one group a pass solved (a group
// kept from an earlier pass prints none): its size, the columns left once
// twin variables merge, the arithmetic its relaxations ran in, the
// branch-and-bound nodes and simplex pivots its solve took, how many
// exact relaxations restarted on math/big after a word overflow and how
// many float ones escalated to exact arithmetic, how it ended and how long
// it took to the microsecond — most groups solve in well under a
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
// solve went (group merges, passes, groups kept from an earlier pass, soft
// fallback, joint fallback) and the time formulating and solving took.
func viewTrace(sol *ViewSolution, formulate time.Duration) string {
	st := sol.Stats
	return fmt.Sprintf("[hydra-trace] view=%s ccs=%d attrs=%d subviews=%d fill=%d vars=%d rows=%d cc_rows=%d cons_rows=%d merges=%d passes=%d kept=%d soft=%t fallback=%t formulate=%v solve=%v",
		sol.View.Table.Name, len(sol.View.CCs), len(sol.View.Attrs), st.SubViews, st.FillEdges,
		st.Vars, st.Rows, st.CCRows, st.ConsistencyRows, st.SequentialMerges, st.SequentialPasses, st.KeptGroups, st.Soft, st.SequentialFallback,
		formulate.Round(time.Microsecond), st.SolveTime.Round(time.Microsecond))
}
