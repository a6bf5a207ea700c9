// Package core implements Hydra's LP Formulator (§4, the thick-bordered
// green box of Fig. 2): for each view it decomposes the attribute space
// into sub-views (maximal cliques of the chordal view-graph), partitions
// every sub-view's domain into regions, assigns one LP variable per region,
// encodes every in-scope CC plus per-sub-view totals plus cross-sub-view
// marginal-consistency rows, and solves the resulting integer program.
package core

import (
	"errors"
	"fmt"
	"os"
	"slices"
	"sort"
	"sync"
	"time"

	"github.com/dsl-repro/hydra/internal/lp"
	"github.com/dsl-repro/hydra/internal/partition"
	"github.com/dsl-repro/hydra/internal/pred"
	"github.com/dsl-repro/hydra/internal/preprocess"
	"github.com/dsl-repro/hydra/internal/viewgraph"
)

// Options configures formulation and solving.
type Options struct {
	// Backend selects the LP arithmetic (lp.Auto by default).
	Backend lp.Backend
	// NoSoftFallback disables the L1 soft solve on infeasible input;
	// FormulateAndSolve then returns the infeasibility error instead.
	NoSoftFallback bool

	// ws is the tableau memory of a SolveViews worker, lent to each view
	// it solves; nil has a solve take one from workspaces.
	ws *lp.Workspace
}

// workspaces hold the tableau memory of finished solves. A solve, or a
// SolveViews worker, takes one for all its LPs and puts it back when done,
// so concurrent solves each have their own, and each builds its tableaus
// in the cells an earlier one left behind: a tableau is allocated once
// per size it grows to, not once per LP, view and call.
var workspaces = sync.Pool{New: func() any { return new(lp.Workspace) }}

// workspace returns the tableau memory a solve under opts uses, and the
// function that gives it back.
func (opts Options) workspace() (*lp.Workspace, func()) {
	if opts.ws != nil {
		return opts.ws, func() {}
	}
	ws := workspaces.Get().(*lp.Workspace)
	return ws, func() { workspaces.Put(ws) }
}

// RegionCount is one populated region of a sub-view solution.
type RegionCount struct {
	Region partition.Region
	// Rep is the region's representative point, aligned with the owning
	// SubViewSolution's Attrs.
	Rep []int64
	// Count is the LP-assigned number of tuples in the region.
	Count int64
}

// SubViewSolution is the solved tuple distribution of one sub-view.
type SubViewSolution struct {
	// Attrs are the view-attribute ids covered by this sub-view, sorted.
	Attrs []int
	// Rows are the populated regions (zero-count regions are dropped).
	Rows []RegionCount
	// AllRegions is the total region count before dropping zeros — the
	// LP-variable tally the paper reports in Figures 12 and 17.
	AllRegions int
}

// ViewStats carries the complexity and accuracy metrics the evaluation
// section reports per view.
type ViewStats struct {
	Vars            int           // LP variables (regions across sub-views)
	Rows            int           // LP rows
	CCRows          int           // rows encoding CCs
	ConsistencyRows int           // marginal-equality rows
	SubViews        int           // clique count
	FillEdges       int           // chordal completion edges added
	SolveTime       time.Duration // LP solve wall time
	Nodes           int           // branch-and-bound nodes
	Pivots          int           // simplex pivots
	SoftResidual    int64         // total |violation| if soft solve was used
	Soft            bool          // true when the soft fallback produced the solution
	// SequentialFallback is true when decomposed solving failed and the
	// joint LP produced the solution instead.
	SequentialFallback bool
	// SequentialMerges counts sub-view group fusions performed by the
	// sequential solver before it converged.
	SequentialMerges int
}

// ViewSolution is the complete solved view: its sub-views in merge order
// plus diagnostics.
type ViewSolution struct {
	View *preprocess.View
	// SubViews are listed in clique-tree preorder (the §5.1.1 merge
	// order): every sub-view intersects the union of its predecessors
	// exactly in its clique-tree separator.
	SubViews []SubViewSolution
	Stats    ViewStats
}

// Formulation is the intermediate LP form, exposed so the experiment
// harness can report complexity (Fig. 12/13) without solving.
type Formulation struct {
	View    *preprocess.View
	Problem *lp.Problem
	// cliques[i] lists view-attr ids of sub-view i, sorted; order follows
	// the clique-tree preorder.
	cliques [][]int
	// regions[i] are sub-view i's regions; variable ids are assigned
	// contiguously per sub-view starting at varBase[i].
	regions [][]partition.Region
	varBase []int
	// ccBits[i] maps position j of sub-view i's label bitset to the
	// index of the ViewCC it encodes, or -1 for marker constraints.
	ccBits [][]int
	// edges lists clique-tree edges as (child, parent) positions in
	// preorder, with the shared attributes (separator) and its atom cells.
	edges []svEdge
	atoms map[int][]pred.Interval
	Stats ViewStats
}

// svEdge is a clique-tree edge in preorder positions.
//
// Its cells are a partition Π_S of dom(S), S the separator, and the
// consistency rows equate the child's and the parent's mass per cell.
// That is sound only if every region on either side projects into one
// cell: a region straddling two cells would count toward both. Today's
// Π_S is the product, per attribute of S, of the atoms sharedAtoms cuts
// at the boundaries of every conjunct of the view (allConjuncts), which
// the marker constraints make every region respect. It is one valid
// choice, and finer than needed: the coarsest valid Π_S is Algorithm 1
// (partition.OptimalIncremental) run on S against the S-projections of
// the two endpoint cliques' conjuncts only.
type svEdge struct {
	child, parent int
	sep           []int
	cells         []sepCell // in key order, so every LP built from them is too
}

// sepCell is one atom cell of an edge's separator: the regions (indices
// local to their sub-view) of the child and of the parent that fall in it.
// Consistency means the two sides carry equal mass.
type sepCell struct {
	key           string
	child, parent []int
}

// balance is the cell's child mass minus its parent mass as row entries,
// given the variable id of each side's first region.
func (c sepCell) balance(childBase, parentBase int) []lp.Entry {
	entries := make([]lp.Entry, 0, len(c.child)+len(c.parent))
	for _, ri := range c.child {
		entries = append(entries, lp.Entry{Var: childBase + ri, Coef: 1})
	}
	for _, ri := range c.parent {
		entries = append(entries, lp.Entry{Var: parentBase + ri, Coef: -1})
	}
	return entries
}

// Strategy partitions one sub-view's domain into labeled regions. Hydra
// uses RegionStrategy (the paper's contribution); the DataSynth baseline
// substitutes GridStrategy. A strategy may fail (e.g. a grid too large to
// enumerate), which Formulate surfaces via the Formulation's Err field —
// the Fig. 13 solver "crash".
type Strategy func(space []pred.Set, cons []pred.DNF) ([]partition.Region, error)

// RegionStrategy is Hydra's optimal region partitioning, guarded by the
// default refinement budget so adversarial constraint sets fail with a
// clear error instead of exhausting memory. It uses the incremental
// label-merged evaluation order, which produces the identical optimal
// partition as the paper's Algorithms 1+2 while keeping intermediate state
// proportional to the answer.
func RegionStrategy(space []pred.Set, cons []pred.DNF) ([]partition.Region, error) {
	return partition.OptimalIncremental(space, cons, partition.DefaultMaxBlocks)
}

// Formulate builds the per-view LP using region partitioning. It follows
// §4 exactly: decompose the view-graph into sub-views; inject marker atoms
// for attributes shared across sub-views; partition each sub-view's domain
// optimally; emit CC rows, per-sub-view totals, and consistency rows.
//
// It panics if the refinement budget is exceeded; use FormulateWith to
// handle that case as an error.
func Formulate(v *preprocess.View) *Formulation {
	f, err := FormulateWith(v, RegionStrategy)
	if err != nil {
		panic(err)
	}
	return f
}

// SubViewInput is one sub-view's partitioning input: its attributes (view
// ids), its domain, and the labeled constraints to partition against (the
// in-scope CC predicates followed by marker atoms; CCIdx maps each
// constraint to the view CC it encodes, or -1 for markers). It is exported
// so alternative partitioning strategies — notably the DataSynth grid
// baseline — can analyze complexity without running a strategy.
type SubViewInput struct {
	Attrs []int
	Space []pred.Set
	Cons  []pred.DNF
	CCIdx []int
}

// MergeFloorThreshold controls the adaptive decomposition policy: the
// maximal-clique decomposition guarantees at least ∏ atoms(d) regions per
// clique over its shared dimensions d (every consistency cell needs its
// own variable). When that floor, summed over cliques, exceeds this
// threshold, the decomposition is costing more than it saves and the view
// is re-decomposed into the connected components of its view-graph
// instead: components share no attributes, so no marker atoms and no
// consistency rows are needed at all, and the region count collapses back
// to the number of distinct constraint-satisfaction labels.
//
// The paper's workloads (few, lightly-overlapping CCs per view) sit far
// below the threshold and use the §3.2 decomposition unchanged; densely
// overlapping workloads trigger the merge. Exposed as a variable so the
// decomposition-policy ablation bench can force either behaviour.
var MergeFloorThreshold = 20_000

// SubViewInputs decomposes the view and returns the per-sub-view
// partitioning inputs in merge order.
func SubViewInputs(v *preprocess.View) []SubViewInput {
	inputs, _, _ := subViewInputs(v)
	return inputs
}

func subViewInputs(v *preprocess.View) ([]SubViewInput, decomposed, map[int][]pred.Interval) {
	n := len(v.Attrs)
	g := viewgraph.New(n)
	ccAttrs := make([][]int, len(v.CCs)) // each CC's attributes, sorted
	for ci, vcc := range v.CCs {
		ccAttrs[ci] = vcc.Pred.Attrs()
		g.AddClique(ccAttrs[ci])
	}
	tree := vgDecompose(g)

	// Order cliques by the RIP merge order.
	cliques := make([][]int, 0, len(tree.t.Cliques))
	for _, ci := range tree.t.Order {
		cliques = append(cliques, tree.t.Cliques[ci])
	}

	// Shared attributes and their atoms.
	occur, atoms := sharedAtoms(v, cliques)

	// Adaptive policy. The maximal-clique decomposition pays a region
	// floor of ∏ atoms(d) per clique over shared dimensions; merging a
	// connected component into one sub-view avoids all markers but pays
	// the label product of its (near-)independent constraints, which can
	// be exponential. Neither dominates, so when the clique floor is
	// painful we TRY the merged form under a budget proportional to that
	// floor and keep whichever side succeeds.
	if MergeFloorThreshold > 0 {
		if floor := regionFloor(cliques, occur, atoms); floor > MergeFloorThreshold {
			comps := g.Components()
			budget := 4 * floor
			if budget > partition.DefaultMaxBlocks {
				budget = partition.DefaultMaxBlocks
			}
			if mergedComponentsViable(v, ccAttrs, comps, budget) {
				tree = forestDecomposed(comps)
				cliques = comps
				occur, atoms = sharedAtoms(v, cliques)
			}
		}
	}

	inputs := make([]SubViewInput, 0, len(cliques))
	for _, cl := range cliques {
		in := SubViewInput{Attrs: cl}
		local := make(map[int]int, len(cl))
		in.Space = make([]pred.Set, len(cl))
		for i, a := range cl {
			local[a] = i
			in.Space[i] = v.Domains[a]
		}
		for ci, vcc := range v.CCs {
			if coveredBy(ccAttrs[ci], cl) {
				in.Cons = append(in.Cons, vcc.Pred.Remap(local))
				in.CCIdx = append(in.CCIdx, ci)
			}
		}
		for i, a := range cl {
			if ats, ok := atoms[a]; ok {
				for _, m := range partition.MarkerDNFs(i, ats) {
					in.Cons = append(in.Cons, m)
					in.CCIdx = append(in.CCIdx, -1)
				}
			}
		}
		inputs = append(inputs, in)
	}
	return inputs, tree, atoms
}

// FormulateWith is Formulate parameterized by the partitioning strategy.
func FormulateWith(v *preprocess.View, strat Strategy) (*Formulation, error) {
	inputs, tree, atoms := subViewInputs(v)
	f := &Formulation{View: v, Problem: &lp.Problem{}, atoms: atoms}
	f.Stats.FillEdges = tree.fill
	f.Stats.SubViews = len(inputs)

	cliques := make([][]int, len(inputs))
	for i, in := range inputs {
		cliques[i] = in.Attrs
	}
	f.cliques = cliques

	// Partition each sub-view.
	for _, in := range inputs {
		regions, err := strat(in.Space, in.Cons)
		if err != nil {
			return nil, fmt.Errorf("core: view %s sub-view %v: %w", v.Table.Name, in.Attrs, err)
		}
		f.varBase = append(f.varBase, f.Problem.NumVars)
		f.Problem.NumVars += len(regions)
		f.regions = append(f.regions, regions)
		f.ccBits = append(f.ccBits, in.CCIdx)
	}
	f.Stats.Vars = f.Problem.NumVars

	// CC rows: a CC is encoded in every sub-view covering it (§4: "every
	// CC that is within its scope"); redundant copies stay consistent
	// through the marginal rows below.
	for si := range cliques {
		for bit, ci := range f.ccBits[si] {
			if ci == -1 {
				continue
			}
			var vars []int
			for ri, r := range f.regions[si] {
				if r.Label.Has(bit) {
					vars = append(vars, f.varBase[si]+ri)
				}
			}
			f.Problem.AddEq(vars, v.CCs[ci].Count, fmt.Sprintf("%s@sv%d", v.CCs[ci].Name, si))
			f.Stats.CCRows++
		}
	}
	// Per-sub-view totals.
	for si := range cliques {
		vars := make([]int, len(f.regions[si]))
		for ri := range vars {
			vars[ri] = f.varBase[si] + ri
		}
		f.Problem.AddEq(vars, v.Total, fmt.Sprintf("total@sv%d", si))
	}
	// Consistency rows along clique-tree edges: equate atom-cell marginals
	// over the separator.
	for oi, ci := range tree.t.Order {
		pi := tree.t.Parent[ci]
		if pi == -1 {
			continue
		}
		// Positions within f's ordered slices.
		childPos := oi
		parentPos := tree.orderPos[pi]
		sep := viewgraph.Intersect(tree.t.Cliques[ci], tree.t.Cliques[pi])
		if len(sep) == 0 {
			continue
		}
		e := svEdge{child: childPos, parent: parentPos, sep: sep, cells: f.sepCells(childPos, parentPos, sep)}
		f.edges = append(f.edges, e)
		for _, c := range e.cells {
			f.Problem.AddRow(lp.Row{Entries: c.balance(f.varBase[childPos], f.varBase[parentPos]), Rel: lp.EQ, RHS: 0,
				Name: fmt.Sprintf("cons@sv%d~sv%d:%x", childPos, parentPos, c.key)})
			f.Stats.ConsistencyRows++
		}
	}
	f.Stats.Rows = len(f.Problem.Rows)
	return f, nil
}

// sepCells buckets both ends of a clique-tree edge by atom cell over sep.
func (f *Formulation) sepCells(child, parent int, sep []int) []sepCell {
	childCells, parentCells := f.cellGroups(child, sep), f.cellGroups(parent, sep)
	keys := make([]string, 0, len(childCells)+len(parentCells))
	for k := range childCells {
		keys = append(keys, k)
	}
	for k := range parentCells {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	keys = slices.Compact(keys)
	cells := make([]sepCell, len(keys))
	for i, k := range keys {
		cells[i] = sepCell{key: k}
		if c, ok := childCells[k]; ok {
			cells[i].child = *c
		}
		if c, ok := parentCells[k]; ok {
			cells[i].parent = *c
		}
	}
	return cells
}

// cellGroups buckets sub-view si's regions (local indices) by their
// atom-cell key over the separator dims (view-attr ids). Cells are held
// by pointer so that adding a region to a known cell is a lookup, which
// does not copy the key.
func (f *Formulation) cellGroups(si int, sep []int) map[string]*[]int {
	local := localIndex(f.cliques[si])
	out := map[string]*[]int{}
	key := make([]byte, 0, len(sep)*4)
	for ri, r := range f.regions[si] {
		rep := r.RepBlock()
		key = key[:0]
		for _, a := range sep {
			ai := atomIndex(f.atoms[a], rep.Dims[local[a]].Min())
			key = append(key, byte(ai), byte(ai>>8), byte(ai>>16), byte(ai>>24))
		}
		if cell, ok := out[string(key)]; ok {
			*cell = append(*cell, ri)
		} else {
			out[string(key)] = &[]int{ri}
		}
	}
	return out
}

func atomIndex(atoms []pred.Interval, v int64) int {
	lo, hi := 0, len(atoms)-1
	for lo <= hi {
		mid := (lo + hi) / 2
		switch {
		case v < atoms[mid].Lo:
			hi = mid - 1
		case v > atoms[mid].Hi:
			lo = mid + 1
		default:
			return mid
		}
	}
	return -1
}

func coveredBy(attrs, clique []int) bool {
	j := 0
	for _, a := range attrs {
		for j < len(clique) && clique[j] < a {
			j++
		}
		if j == len(clique) || clique[j] != a {
			return false
		}
		j++
	}
	return true
}

type decomposed struct {
	t        *viewgraph.CliqueTree
	fill     int
	orderPos map[int]int // clique index → position in Order
}

func vgDecompose(g *viewgraph.Graph) decomposed {
	peo, fill := g.Chordalize()
	cliques := viewgraph.MaxCliques(g, peo)
	t := viewgraph.NewCliqueTree(cliques)
	pos := make(map[int]int, len(t.Order))
	for i, ci := range t.Order {
		pos[ci] = i
	}
	return decomposed{t: t, fill: fill, orderPos: pos}
}

// forestDecomposed wraps attribute components as a decomposition with no
// tree edges (components share nothing).
func forestDecomposed(comps [][]int) decomposed {
	t := &viewgraph.CliqueTree{Cliques: comps, Parent: make([]int, len(comps))}
	pos := make(map[int]int, len(comps))
	for i := range comps {
		t.Parent[i] = -1
		t.Order = append(t.Order, i)
		pos[i] = i
	}
	return decomposed{t: t, orderPos: pos}
}

// sharedAtoms computes attribute occurrence counts across sub-views and
// the consistency atoms of every shared attribute.
func sharedAtoms(v *preprocess.View, cliques [][]int) ([]int, map[int][]pred.Interval) {
	occur := make([]int, len(v.Attrs))
	for _, c := range cliques {
		for _, a := range c {
			occur[a]++
		}
	}
	var allConjuncts []pred.Conjunct
	for _, vcc := range v.CCs {
		allConjuncts = append(allConjuncts, vcc.Pred.Terms...)
	}
	atoms := make(map[int][]pred.Interval)
	for a := range occur {
		if occur[a] > 1 {
			atoms[a] = partition.Atoms(v.Domains[a], allConjuncts, a)
		}
	}
	return occur, atoms
}

// mergedComponentsViable trial-partitions each connected component as a
// single sub-view under a block budget, reporting whether every component
// stays within it. The trial duplicates the later real partitioning work,
// but only on views whose clique decomposition is already known to be
// expensive.
func mergedComponentsViable(v *preprocess.View, ccAttrs, comps [][]int, budget int) bool {
	for _, comp := range comps {
		local := make(map[int]int, len(comp))
		space := make([]pred.Set, len(comp))
		for i, a := range comp {
			local[a] = i
			space[i] = v.Domains[a]
		}
		var cons []pred.DNF
		for ci, vcc := range v.CCs {
			if coveredBy(ccAttrs[ci], comp) {
				cons = append(cons, vcc.Pred.Remap(local))
			}
		}
		if len(cons) == 0 {
			continue
		}
		if _, err := partition.OptimalIncremental(space, cons, budget); err != nil {
			return false
		}
	}
	return true
}

// regionFloor lower-bounds the total region count of a decomposition: each
// clique needs at least one region per combination of consistency atoms
// over its shared dimensions.
func regionFloor(cliques [][]int, occur []int, atoms map[int][]pred.Interval) int {
	const cap = 1 << 40
	total := 0
	for _, cl := range cliques {
		f := 1
		for _, a := range cl {
			if occur[a] > 1 {
				f *= len(atoms[a])
				if f > cap {
					return cap
				}
			}
		}
		total += f
		if total > cap {
			return cap
		}
	}
	return total
}

// stopwatch starts timing and returns the reader of the elapsed time.
//
//hydra:nondeterministic feeds Stats.SolveTime and HYDRA_TRACE lines only; no count is computed from it
func stopwatch() func() time.Duration {
	start := time.Now()
	return func() time.Duration { return time.Since(start) }
}

// Solve runs the integer solver over the formulation and extracts the
// per-sub-view solutions. On infeasible or budget-exhausted systems it
// falls back to the L1-minimal soft solution (unless disabled), recording
// the residual so validation reports it as CC error rather than failure.
func (f *Formulation) Solve(opts Options) (*ViewSolution, error) {
	elapsed := stopwatch()
	x, err := f.solveVector(opts)
	if err != nil {
		return nil, err
	}
	f.Stats.SolveTime = elapsed()

	vs := &ViewSolution{View: f.View, Stats: f.Stats}
	for si, cl := range f.cliques {
		sv := SubViewSolution{Attrs: cl, AllRegions: len(f.regions[si])}
		for ri, r := range f.regions[si] {
			cnt := x[f.varBase[si]+ri]
			if cnt <= 0 {
				continue
			}
			sv.Rows = append(sv.Rows, RegionCount{Region: r, Rep: r.Rep(), Count: cnt})
		}
		vs.SubViews = append(vs.SubViews, sv)
	}
	vs.Stats = f.Stats
	return vs, nil
}

func (f *Formulation) solveVector(opts Options) ([]int64, error) {
	ws, done := opts.workspace()
	sol, err := lp.SolveInteger(f.Problem, lp.IntOptions{Backend: opts.Backend, Workspace: ws})
	done()
	if err == nil {
		f.Stats.Nodes, f.Stats.Pivots = sol.Nodes, sol.Pivots
		return sol.X, nil
	}
	if (errors.Is(err, lp.ErrNodeLimit) || errors.Is(err, lp.ErrSearchExhausted)) && sol.Exact {
		f.Stats.Nodes, f.Stats.Pivots = sol.Nodes, sol.Pivots
		return sol.X, nil
	}
	if opts.NoSoftFallback {
		return nil, fmt.Errorf("core: view %s: %w", f.View.Table.Name, err)
	}
	soft, serr := lp.SolveSoft(f.Problem, opts.Backend)
	if serr != nil {
		return nil, fmt.Errorf("core: view %s: hard solve failed (%v) and soft solve failed: %w", f.View.Table.Name, err, serr)
	}
	f.Stats.Soft = true
	f.Stats.SoftResidual = soft.TotalAbs
	return soft.X, nil
}

// FormulateAndSolve is the one-call convenience wrapper: region
// partitioning plus the sequential (per-sub-view) solving path.
func FormulateAndSolve(v *preprocess.View, opts Options) (*ViewSolution, error) {
	elapsed := stopwatch()
	f, err := FormulateWith(v, RegionStrategy)
	if err != nil {
		return nil, err
	}
	formulate := elapsed()
	sol, err := f.SolveSequential(opts)
	if traceSequential && err == nil {
		fmt.Fprintln(os.Stderr, viewTrace(sol, formulate))
	}
	return sol, err
}
