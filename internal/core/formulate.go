// Package core implements Hydra's LP Formulator (§4, the thick-bordered
// green box of Fig. 2): for each view it decomposes the attribute space
// into sub-views (maximal cliques of the chordal view-graph), partitions
// every sub-view's domain into regions, assigns one LP variable per region,
// encodes every in-scope CC plus per-sub-view totals plus cross-sub-view
// marginal-consistency rows, and solves the resulting integer program.
package core

import (
	"bytes"
	"errors"
	"fmt"
	"math/bits"
	"os"
	"slices"
	"time"

	"github.com/dsl-repro/hydra/internal/freelist"
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

	// mem is the solve memory of a SolveViews worker, lent to each view
	// it solves; nil has a solve take one from the free list.
	mem *solveMemory
}

// solveMemory is what the LPs of a solve reuse from one to the next: the
// tableau memory, and the buffers group LPs are assembled in.
type solveMemory struct {
	ws    lp.Workspace
	group groupLP
}

// maxKeptTableau is the most tableau memory, in bytes, a finished solve's
// memory may hold and still be kept for the next solve. It sits below one
// float tableau of WLc-131's store_sales view (over 100 MB), so a
// workload that needs one does not hold it for the life of the process.
const maxKeptTableau = 64 << 20

// memories hold the memory of finished solves. A solve, or a SolveViews
// worker, takes one for all its LPs and puts it back when done, so
// concurrent solves each have their own, and each builds its tableaus in
// the cells an earlier one left behind: a tableau is allocated once per
// size it grows to, not once per LP, view and call.
var memories = freelist.New(func(m *solveMemory) int { return m.ws.Bytes() }, maxKeptTableau)

// memory returns the solve memory a solve under opts uses, and the
// function that gives it back.
func (opts Options) memory() (*solveMemory, func()) {
	if opts.mem != nil {
		return opts.mem, func() {}
	}
	m := memories.Get()
	return m, func() { memories.Put(m) }
}

// RegionCount is one populated region of a sub-view solution.
type RegionCount struct {
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
	// SequentialPasses counts the sequential solver's passes over the
	// groups (one more than its merges once it converges).
	SequentialPasses int
	// KeptGroups counts the groups a pass carried over from an earlier
	// one instead of solving them again, summed over passes.
	KeptGroups int
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
	View *preprocess.View
	// cliques[i] lists view-attr ids of sub-view i, sorted; order follows
	// the clique-tree preorder.
	cliques [][]int
	// regions[i] are sub-view i's regions; variable ids are assigned
	// contiguously per sub-view starting at varBase[i].
	regions [][]partition.Region
	varBase []int
	numVars int
	// ccRows[i] are sub-view i's CC rows, one per in-scope CC in label-bit
	// order; every LP of the view, joint or group, is assembled from them.
	ccRows [][]ccRow
	// edges lists clique-tree edges as (child, parent) positions in
	// preorder, with the shared attributes (separator) and its atom cells.
	edges []svEdge
	// markers[i][d] to markers[i][d+1] are sub-view i's marker bits on dim d.
	markers [][]int
	// problem is the joint LP, built by Problem on first use.
	problem *lp.Problem
	Stats   ViewStats
}

// ccRow is one CC row of a sub-view: the index of the ViewCC it encodes
// and the sub-view's regions (local indices, ascending) whose label
// carries the CC.
type ccRow struct {
	cc      int
	regions []int
}

// labelRows makes a sub-view's CC rows from its region labels: each
// region joins the row of every CC bit its label sets. ccIdx maps a label
// bit to the CC it encodes, or -1 for marker constraints. The rows'
// regions are windows of one array, sized by a first pass.
func labelRows(regions []partition.Region, ccIdx []int) []ccRow {
	var rows []ccRow
	at := make([]int, len(ccIdx)) // label bit → its row, or -1
	for bit, ci := range ccIdx {
		at[bit] = -1
		if ci != -1 {
			at[bit] = len(rows)
			rows = append(rows, ccRow{cc: ci})
		}
	}
	// each calls fn(row) for every CC row region r joins.
	each := func(r partition.Region, fn func(row int)) {
		for w, word := range r.Label {
			for ; word != 0; word &= word - 1 {
				if bit := w*64 + bits.TrailingZeros64(word); bit < len(at) && at[bit] != -1 {
					fn(at[bit])
				}
			}
		}
	}
	end := make([]int, len(rows)) // end[i]: where row i's window ends, once filled
	for _, r := range regions {
		each(r, func(row int) { end[row]++ })
	}
	total := 0
	for i, n := range end {
		total += n
		end[i] = total - n // where row i's window starts, while it fills
	}
	members := make([]int, total)
	for ri, r := range regions {
		each(r, func(row int) {
			members[end[row]] = ri
			end[row]++
		})
	}
	from := 0
	for i := range rows {
		rows[i].regions = members[from:end[i]:end[i]]
		from = end[i]
	}
	return rows
}

// svEdge is a clique-tree edge in preorder positions.
//
// Its cells are a partition Π_S of dom(S), S the separator, and the
// consistency rows equate the child's and the parent's mass per cell.
// That is sound only if every region on either side projects into one
// cell: a region straddling two cells would count toward both. Today's
// Π_S is the product, per attribute of S, of the atoms sharedAtoms cuts
// at the boundaries of every conjunct of the view (allConjuncts), which
// the marker constraints make every region respect. It is finer than
// needed, and the two endpoints' conjuncts alone are too coarse: a merged
// row takes each attribute from the first clique in preorder holding it,
// so a conjunct of clique D restricted to the separator attributes D got
// from one clique O must cut every edge on the path from O to D.
type svEdge struct {
	child, parent int
	sep           []int
	cells         []sepCell // in key order, so every LP built from them is too
}

// sepCell is one atom cell of an edge's separator: the regions (indices
// local to their sub-view) of the child and of the parent that fall in it.
// Consistency means the two sides carry equal mass.
type sepCell struct {
	key           []byte
	child, parent []int
}

// appendBalance appends the cell's child mass minus its parent mass as
// row entries, given the variable id of each side's first region.
func (c sepCell) appendBalance(dst []lp.Entry, childBase, parentBase int) []lp.Entry {
	for _, ri := range c.child {
		dst = append(dst, lp.Entry{Var: childBase + ri, Coef: 1})
	}
	for _, ri := range c.parent {
		dst = append(dst, lp.Entry{Var: parentBase + ri, Coef: -1})
	}
	return dst
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

// SubViewInputs decomposes the view and returns the per-sub-view
// partitioning inputs in merge order.
func SubViewInputs(v *preprocess.View) []SubViewInput {
	inputs, _, _, _ := subViewInputs(v)
	return inputs
}

// subViewInputs decomposes the view-graph of v into its maximal cliques
// (viewgraph.Decompose) and returns each clique's partitioning input in
// clique-tree preorder; the parent of each, as a position in that order
// (-1 for a root); the fill edges the chordal completion added; and where
// each clique's marker atoms sit in its labels (Formulation.markers).
func subViewInputs(v *preprocess.View) (inputs []SubViewInput, parent []int, fill int, markers [][]int) {
	g := viewgraph.New(len(v.Attrs))
	ccAttrs := make([][]int, len(v.CCs)) // each CC's attributes, sorted
	for ci, vcc := range v.CCs {
		ccAttrs[ci] = vcc.Pred.Attrs()
		g.AddClique(ccAttrs[ci])
	}
	tree, fill := viewgraph.Decompose(g)

	// Order cliques by the RIP merge order.
	pos := make([]int, len(tree.Cliques)) // clique index → position in Order
	cliques := make([][]int, len(tree.Order))
	parent = make([]int, len(tree.Order))
	width := 0 // the markers' bounds: one more per clique than its attributes
	for i, ci := range tree.Order {
		pos[ci] = i
		cliques[i] = tree.Cliques[ci]
		width += len(cliques[i]) + 1
		parent[i] = -1
		if pi := tree.Parent[ci]; pi != -1 {
			parent[i] = pos[pi] // a parent precedes its children
		}
	}
	atoms, bounds := sharedAtoms(v, cliques), make([]int, 0, width)
	inputs, markers = make([]SubViewInput, 0, len(cliques)), make([][]int, 0, len(cliques))
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
		bounds = append(bounds, len(in.Cons))
		for i, a := range cl {
			for _, m := range partition.MarkerDNFs(i, atoms[a]) {
				in.Cons = append(in.Cons, m)
				in.CCIdx = append(in.CCIdx, -1)
			}
			bounds = append(bounds, len(in.Cons))
		}
		inputs, markers = append(inputs, in), append(markers, bounds[len(bounds)-len(cl)-1:])
	}
	return inputs, parent, fill, markers
}

// FormulateWith is Formulate parameterized by the partitioning strategy.
// It partitions every sub-view and makes its CC rows and the consistency
// cells of its clique-tree edge; the joint LP is built from those only if
// Problem, Solve or SolveSequential's joint fallback asks for it.
func FormulateWith(v *preprocess.View, strat Strategy) (*Formulation, error) {
	inputs, parent, fill, markers := subViewInputs(v)
	f := &Formulation{View: v, markers: markers}
	f.Stats.FillEdges = fill
	f.Stats.SubViews = len(inputs)

	cliques := make([][]int, len(inputs))
	for i, in := range inputs {
		cliques[i] = in.Attrs
	}
	f.cliques = cliques

	// Partition each sub-view. A CC is encoded in every sub-view covering
	// it (§4: "every CC that is within its scope"); redundant copies stay
	// consistent through the marginal rows.
	for _, in := range inputs {
		regions, err := strat(in.Space, in.Cons)
		if err != nil {
			return nil, fmt.Errorf("core: view %s sub-view %v: %w", v.Table.Name, in.Attrs, err)
		}
		f.varBase = append(f.varBase, f.numVars)
		f.numVars += len(regions)
		f.regions = append(f.regions, regions)
		rows := labelRows(regions, in.CCIdx)
		f.ccRows = append(f.ccRows, rows)
		f.Stats.CCRows += len(rows)
	}
	f.Stats.Vars = f.numVars

	// Consistency cells along clique-tree edges: atom-cell marginals over
	// the separator.
	for child, par := range parent {
		if par == -1 {
			continue
		}
		sep := viewgraph.Intersect(cliques[child], cliques[par])
		if len(sep) == 0 {
			continue
		}
		e := svEdge{child: child, parent: par, sep: sep, cells: f.sepCells(child, par, sep)}
		f.edges = append(f.edges, e)
		f.Stats.ConsistencyRows += len(e.cells)
	}
	// CC rows, one total per sub-view, consistency rows.
	f.Stats.Rows = f.Stats.CCRows + len(cliques) + f.Stats.ConsistencyRows
	return f, nil
}

// Problem returns the view's joint LP: every sub-view's CC rows, then its
// total, then the consistency rows of every clique-tree edge. It is built
// on first use; the sequential solver reads it only when it falls back to
// the joint solve.
func (f *Formulation) Problem() *lp.Problem {
	if f.problem != nil {
		return f.problem
	}
	v := f.View
	p := &lp.Problem{NumVars: f.numVars, Rows: make([]lp.Row, 0, f.Stats.Rows)}
	for si, rows := range f.ccRows {
		for _, r := range rows {
			entries := make([]lp.Entry, len(r.regions))
			for i, ri := range r.regions {
				entries[i] = lp.Entry{Var: f.varBase[si] + ri, Coef: 1}
			}
			p.AddRow(lp.Row{Entries: entries, Rel: lp.EQ, RHS: v.CCs[r.cc].Count, Name: fmt.Sprintf("%s@sv%d", v.CCs[r.cc].Name, si)})
		}
	}
	for si := range f.cliques {
		vars := make([]int, len(f.regions[si]))
		for ri := range vars {
			vars[ri] = f.varBase[si] + ri
		}
		p.AddEq(vars, v.Total, fmt.Sprintf("total@sv%d", si))
	}
	for _, e := range f.edges {
		for _, c := range e.cells {
			p.AddRow(lp.Row{Entries: c.appendBalance(nil, f.varBase[e.child], f.varBase[e.parent]), Rel: lp.EQ, RHS: 0,
				Name: fmt.Sprintf("cons@sv%d~sv%d:%x", e.child, e.parent, c.key)})
		}
	}
	f.problem = p
	return p
}

// sepCells buckets both ends of a clique-tree edge by atom cell over sep,
// in key order. The cells' keys and regions are windows of a few arrays
// per edge.
func (f *Formulation) sepCells(child, parent int, sep []int) []sepCell {
	w := 4 * len(sep)
	ckeys, corder := f.cellKeys(child, sep)
	pkeys, porder := f.cellKeys(parent, sep)
	ckey := func(i int) []byte { return ckeys[corder[i]*w : (corder[i]+1)*w] }
	pkey := func(j int) []byte { return pkeys[porder[j]*w : (porder[j]+1)*w] }
	members := make([]int, 0, len(corder)+len(porder))
	// window returns the members appended since from.
	window := func(from int) []int { return members[from:len(members):len(members)] }
	var cells []sepCell
	for i, j := 0, 0; i < len(corder) || j < len(porder); {
		var key []byte
		switch {
		case j == len(porder):
			key = ckey(i)
		case i == len(corder):
			key = pkey(j)
		default:
			key = ckey(i)
			if k := pkey(j); bytes.Compare(k, key) < 0 {
				key = k
			}
		}
		c := sepCell{key: key}
		from := len(members)
		for ; i < len(corder) && bytes.Equal(ckey(i), key); i++ {
			members = append(members, corder[i])
		}
		c.child = window(from)
		from = len(members)
		for ; j < len(porder) && bytes.Equal(pkey(j), key); j++ {
			members = append(members, porder[j])
		}
		c.parent = window(from)
		cells = append(cells, c)
	}
	return cells
}

// cellKeys keys sub-view si's regions by atom cell over the separator
// dims (view-attr ids): region ri's key is keys[ri·4·len(sep):], four
// bytes of atom index per dim, from its label's marker bits. order lists
// the regions by key, and regions of one cell in index order.
func (f *Formulation) cellKeys(si int, sep []int) (keys []byte, order []int) {
	regions, marks := f.regions[si], f.markers[si]
	dims := make([]int, len(sep)) // the sub-view dimension of each separator attr
	for k, a := range sep {
		dims[k], _ = slices.BinarySearch(f.cliques[si], a)
	}
	keys = make([]byte, 0, 4*len(sep)*len(regions))
	for _, r := range regions {
		for _, d := range dims {
			ai := markerAtom(r.Label, marks[d], marks[d+1])
			keys = append(keys, byte(ai), byte(ai>>8), byte(ai>>16), byte(ai>>24))
		}
	}
	order = make([]int, len(regions))
	for i := range order {
		order[i] = i
	}
	return keys, sortByKey(order, keys, 4*len(sep))
}

// sortByKey orders order by key, element i's key being keys[i·w:(i+1)·w]
// compared bytewise, and keeps elements with equal keys in their order.
// It is a least-significant-byte radix sort that skips the byte positions
// where every key holds the same byte: most of a cell key's bytes are the
// zero high bytes of small atom indices.
func sortByKey(order []int, keys []byte, w int) []int {
	if len(order) < 2 {
		return order
	}
	buf := make([]int, len(order))
	for b := w - 1; b >= 0; b-- {
		var at [257]int // at[c+1]: elements whose byte is c; then where they go
		for _, i := range order {
			at[int(keys[i*w+b])+1]++
		}
		if at[int(keys[order[0]*w+b])+1] == len(order) {
			continue
		}
		for c := 1; c < len(at); c++ {
			at[c] += at[c-1]
		}
		for _, i := range order {
			c := keys[i*w+b]
			buf[at[c]] = i
			at[c]++
		}
		order, buf = buf, order
	}
	return order
}

// markerAtom is the first bit in [from, to) that label sets, counted from
// from (the region's atom on the dimension whose markers those are), or -1.
func markerAtom(label partition.Label, from, to int) int {
	for b := from; b < to; b += 64 - b%64 {
		if word := label[b/64] >> (b % 64); word != 0 {
			if b += bits.TrailingZeros64(word); b < to {
				return b - from
			}
			return -1
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

// sharedAtoms returns the consistency atoms of every attribute more
// than one clique holds: the attribute's domain cut at the boundaries of
// every conjunct of the view.
func sharedAtoms(v *preprocess.View, cliques [][]int) map[int][]pred.Interval {
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
	for a, n := range occur {
		if n > 1 {
			atoms[a] = partition.Atoms(v.Domains[a], allConjuncts, a)
		}
	}
	return atoms
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

	counts := make([][]int64, len(f.regions))
	for si, regions := range f.regions {
		counts[si] = x[f.varBase[si] : f.varBase[si]+len(regions)]
	}
	return f.solution(counts), nil
}

// solution makes the view's solution from each sub-view's region counts,
// dropping the regions that hold no tuples.
func (f *Formulation) solution(counts [][]int64) *ViewSolution {
	vs := &ViewSolution{View: f.View, Stats: f.Stats}
	for si, cl := range f.cliques {
		sv := SubViewSolution{Attrs: cl, AllRegions: len(f.regions[si])}
		for ri, r := range f.regions[si] {
			if c := counts[si][ri]; c > 0 {
				sv.Rows = append(sv.Rows, RegionCount{Rep: r.Rep(), Count: c})
			}
		}
		vs.SubViews = append(vs.SubViews, sv)
	}
	return vs
}

func (f *Formulation) solveVector(opts Options) ([]int64, error) {
	mem, done := opts.memory()
	sol, err := lp.SolveInteger(f.Problem(), lp.IntOptions{Backend: opts.Backend, Workspace: &mem.ws})
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
	soft, serr := lp.SolveSoft(f.Problem(), opts.Backend)
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
