package lp

import (
	"slices"
)

// DedupColumns merges variables whose constraint columns (and objective
// coefficients) are identical into a single representative variable.
//
// Hydra's LPs are full of such twins: region partitioning distinguishes
// regions by marker atoms that the current (sub-)problem's rows do not
// reference, so thousands of regions share the exact same column. Beyond
// shrinking the tableau, deduplication removes the massive degeneracy
// those identical columns cause in simplex pricing.
//
// The reduction is exact for feasibility problems: any solution of the
// reduced problem expands to the original by assigning each class's mass
// to its representative (first) variable and zero to the twins, and any
// original solution folds onto the reduced problem by summation. expand
// maps a reduced solution vector back to original coordinates.
func DedupColumns(p *Problem) (reduced *Problem, expand func([]int64) []int64) {
	classOf, rep := columnClasses(p)
	if len(rep) == p.NumVars {
		// Nothing to merge.
		return p, func(x []int64) []int64 { return x }
	}
	// The reduced column of a class is its REPRESENTATIVE's column (all
	// class members share it by construction; expansion puts the whole
	// class mass on the representative, so summing would double-count).
	isRep := make([]bool, p.NumVars)
	for _, r := range rep {
		isRep[r] = true
	}
	reduced = &Problem{NumVars: len(rep), Rows: make([]Row, 0, len(p.Rows))}
	for _, r := range p.Rows {
		nr := Row{Rel: r.Rel, RHS: r.RHS, Name: r.Name}
		for _, e := range r.Entries {
			if isRep[e.Var] {
				nr.Entries = append(nr.Entries, Entry{Var: classOf[e.Var], Coef: e.Coef})
			}
		}
		reduced.Rows = append(reduced.Rows, nr)
	}
	for _, e := range p.Objective {
		if isRep[e.Var] {
			reduced.Objective = append(reduced.Objective, Entry{Var: classOf[e.Var], Coef: e.Coef})
		}
	}
	expand = func(x []int64) []int64 {
		out := make([]int64, p.NumVars)
		for c, r := range rep {
			out[r] = x[c]
		}
		return out
	}
	return reduced, expand
}

// columnClasses groups p's variables by identical column: classOf maps a
// variable to its class, and rep lists each class's first variable, in
// order of first appearance.
func columnClasses(p *Problem) (classOf, rep []int) {
	cols := columns(p)
	classOf = make([]int, p.NumVars)
	rep = make([]int, 0, p.NumVars)
	// Classes are found by hashing each column: newest[h]-1 is the latest
	// class whose column hashes to h (-1 for none), and older[c] the class
	// before c with the same hash.
	newest := make(map[uint64]int, p.NumVars)
	older := make([]int, 0, p.NumVars)
	for v := range p.NumVars {
		col := cols.of(v)
		h := col.hash()
		c := newest[h] - 1
		for c >= 0 && !slices.Equal(cols.of(rep[c]), col) {
			c = older[c]
		}
		if c < 0 {
			c = len(rep)
			older = append(older, newest[h]-1)
			newest[h] = c + 1
			rep = append(rep, v)
		}
		classOf[v] = c
	}
	return classOf, rep
}

// colEntry is one non-zero of a column: its row (-1 for the objective)
// and coefficient.
type colEntry struct {
	row  int
	coef int64
}

// column is one variable's non-zeros, objective first, then by row.
type column []colEntry

// hash is FNV-1a over the column's rows and coefficients, a word at a time.
func (c column) hash() uint64 {
	h := uint64(14695981039346656037)
	for _, e := range c {
		h = (h ^ uint64(e.row)) * 1099511628211
		h = (h ^ uint64(e.coef)) * 1099511628211
	}
	return h
}

// columnSet holds every column of a problem in one array: column v is
// entries[start[v]:start[v+1]].
type columnSet struct {
	entries []colEntry
	start   []int
}

func (s columnSet) of(v int) column { return s.entries[s.start[v]:s.start[v+1]] }

// columns transposes p into its columns. Each column lists the objective's
// entries, then the rows' in row order: the order a sort by row leaves them
// in, since Hydra's rows and objectives never name a variable twice.
func columns(p *Problem) columnSet {
	start := make([]int, p.NumVars+1)
	for _, e := range p.Objective {
		start[e.Var+1]++
	}
	for _, r := range p.Rows {
		for _, e := range r.Entries {
			start[e.Var+1]++
		}
	}
	for v := range p.NumVars {
		start[v+1] += start[v]
	}
	s := columnSet{entries: make([]colEntry, start[p.NumVars]), start: start}
	next := slices.Clone(start[:p.NumVars])
	put := func(v, row int, coef int64) {
		s.entries[next[v]] = colEntry{row, coef}
		next[v]++
	}
	for _, e := range p.Objective {
		put(e.Var, -1, e.Coef)
	}
	for ri, r := range p.Rows {
		for _, e := range r.Entries {
			put(e.Var, ri, e.Coef)
		}
	}
	return s
}
