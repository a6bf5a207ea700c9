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
	d := new(Workspace).dedupColumns(p)
	return d.reduced, d.expand
}

// dedup is the outcome of Workspace.dedupColumns: the reduced problem and
// each class's representative, in the workspace's memory.
type dedup struct {
	reduced *Problem
	n       int   // the original problem's variables
	rep     []int // rep[c]: the original variable class c stands for
}

// expand maps a reduced solution vector back to original coordinates.
func (d dedup) expand(x []int64) []int64 {
	if len(d.rep) == d.n {
		return x
	}
	out := make([]int64, d.n)
	for c, r := range d.rep {
		out[r] = x[c]
	}
	return out
}

// dedupColumns is DedupColumns in ws's memory: the reduced problem, its
// rows and their entries, and the class tables behind them are ws's, and
// valid until its next dedupColumns.
func (ws *Workspace) dedupColumns(p *Problem) dedup {
	classOf, rep := ws.columnClasses(p)
	d := dedup{reduced: p, n: p.NumVars, rep: rep}
	if len(rep) == p.NumVars {
		return d // nothing to merge
	}
	// The reduced column of a class is its REPRESENTATIVE's column (all
	// class members share it by construction; expansion puts the whole
	// class mass on the representative, so summing would double-count).
	isRep := zeroed(&ws.isRep, p.NumVars)
	for _, r := range rep {
		isRep[r] = true
	}
	// The rows are windows of one entry array, so it must not grow while
	// they are made: size it first.
	total := 0
	for _, r := range p.Rows {
		for _, e := range r.Entries {
			if isRep[e.Var] {
				total++
			}
		}
	}
	entries := reuse(&ws.dedupEntries, total)[:0]
	rows := reuse(&ws.dedupRows, len(p.Rows))
	for i, r := range p.Rows {
		from := len(entries)
		for _, e := range r.Entries {
			if isRep[e.Var] {
				entries = append(entries, Entry{Var: classOf[e.Var], Coef: e.Coef})
			}
		}
		rows[i] = Row{Entries: entries[from:len(entries):len(entries)], Rel: r.Rel, RHS: r.RHS, Name: r.Name}
	}
	obj := ws.dedupObj[:0]
	for _, e := range p.Objective {
		if isRep[e.Var] {
			obj = append(obj, Entry{Var: classOf[e.Var], Coef: e.Coef})
		}
	}
	ws.dedupObj = obj
	ws.reduced = Problem{NumVars: len(rep), Rows: rows, Objective: obj}
	d.reduced = &ws.reduced
	return d
}

// columnClasses groups p's variables by identical column: classOf maps a
// variable to its class, and rep lists each class's first variable, in
// order of first appearance. Both are ws's memory.
func (ws *Workspace) columnClasses(p *Problem) (classOf, rep []int) {
	cols := ws.columns(p)
	classOf = reuse(&ws.classOf, p.NumVars)
	rep = ws.rep[:0]
	// Classes are found by hashing each column into an open-addressed
	// table: a slot holds one plus a class whose column hashes there, or
	// zero.
	size := 1
	for size < 2*p.NumVars {
		size *= 2
	}
	table := zeroed(&ws.classTable, size)
	for v := range p.NumVars {
		col := cols.of(v)
		h := int(col.hash()) & (size - 1)
		for table[h] != 0 && !slices.Equal(cols.of(rep[table[h]-1]), col) {
			h = (h + 1) & (size - 1)
		}
		if table[h] == 0 {
			table[h] = len(rep) + 1
			rep = append(rep, v)
		}
		classOf[v] = table[h] - 1
	}
	ws.rep = rep
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

// columns transposes p into its columns, in ws's memory. Each column
// lists the objective's entries, then the rows' in row order: the order a
// sort by row leaves them in, since Hydra's rows and objectives never name
// a variable twice.
func (ws *Workspace) columns(p *Problem) columnSet {
	start := zeroed(&ws.colStart, p.NumVars+1)
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
	s := columnSet{entries: reuse(&ws.colEntries, start[p.NumVars]), start: start}
	next := reuse(&ws.colNext, p.NumVars)
	copy(next, start)
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
