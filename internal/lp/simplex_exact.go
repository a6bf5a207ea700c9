package lp

import (
	"errors"
	"fmt"
	"math/big"
)

// exactTableau is a dense simplex tableau over an exact arithmetic T: one
// implementation serves both the word-sized rationals of the fast path and
// the math/big ones of its fallback, so the two pivot identically.
//
// Column layout: [0,n) structural variables, [n, artStart) slack/surplus
// variables, [artStart, cols) artificial variables; one extra RHS column.
type exactTableau[T any] struct {
	ar        exactArith[T]
	zero, one T
	rows      [][]T // m x (cols+1); last column is RHS
	obj       []T   // reduced-cost row, length cols+1 (last = -objective value)
	basis     []int // basic variable per row
	n         int   // structural variables
	cols      int   // total variables (structural + slack + artificial)
	artStart  int   // first artificial column
	pivots    int
	nzBuf     []int // scratch behind nonZeros
}

// errOverflow aborts a solve whose arithmetic has overflowed.
var errOverflow = errors.New("lp: exact arithmetic overflowed its word size")

// rowRelations returns each row's relation once its RHS is made
// non-negative, and how many slack and artificial columns those relations
// take; it sizes ws's column marks for p.
func rowRelations(p *Problem, ws *Workspace) (rels []Rel, slacks, arts int) {
	rels = reuse(&ws.rels, len(p.Rows))
	for i, r := range p.Rows {
		rels[i] = r.Rel
		if r.RHS < 0 && r.Rel != EQ {
			rels[i] = LE + GE - r.Rel // negating a row swaps LE and GE
		}
		if rels[i] != EQ {
			slacks++
		}
		if rels[i] != LE {
			arts++
		}
	}
	if len(ws.mark) < p.NumVars {
		ws.mark = make([]uint32, p.NumVars)
	}
	return rels, slacks, arts
}

// structColumns returns the distinct variables r names, in order of first
// appearance, in ws's scratch memory.
func structColumns(ws *Workspace, r Row) []int {
	if ws.gen++; ws.gen == 0 {
		clear(ws.mark)
		ws.gen = 1
	}
	cols := ws.cols[:0]
	for _, e := range r.Entries {
		if ws.mark[e.Var] != ws.gen {
			ws.mark[e.Var] = ws.gen
			cols = append(cols, e.Var)
		}
	}
	ws.cols = cols
	return cols
}

// newExactTableau builds the Phase-I tableau for p in cells backed by *buf,
// with its other memory in ws. Rows are normalized to non-negative RHS; LE
// rows receive slacks (basic when possible), GE rows a surplus plus
// artificial, EQ rows an artificial.
func newExactTableau[T any](p *Problem, ar exactArith[T], buf *[]T, ws *Workspace) *exactTableau[T] {
	m := len(p.Rows)
	rels, slacks, arts := rowRelations(p, ws)
	t := &exactTableau[T]{
		ar:       ar,
		zero:     ar.fromInt(0),
		one:      ar.fromInt(1),
		n:        p.NumVars,
		artStart: p.NumVars + slacks,
		cols:     p.NumVars + slacks + arts,
		basis:    reuse(&ws.basis, m),
		rows:     make([][]T, m),
		nzBuf:    ws.nz,
	}
	width := t.cols + 1
	cells := reuse(buf, (m+1)*width) // one backing array: obj, then the rows
	for i := range cells {
		cells[i] = t.zero
	}
	t.obj = cells[:width:width]
	// Phase-I reduced costs: minimize w = Σ artificials. With artificials
	// basic, obj[j] = c_j − Σ T[i][j] over the rows i whose basic variable
	// is artificial, folded row by row as each is built, over its non-zero
	// cells only: a zero cell subtracts nothing.
	for j := t.artStart; j < t.cols; j++ {
		t.obj[j] = t.one
	}
	slackIdx, artIdx := p.NumVars, t.artStart
	for i, r := range p.Rows {
		row := cells[(i+1)*width : (i+2)*width : (i+2)*width]
		neg := r.RHS < 0
		for _, e := range r.Entries {
			if c := ar.fromInt(e.Coef); neg {
				row[e.Var] = ar.sub(row[e.Var], c)
			} else {
				row[e.Var] = ar.add(row[e.Var], c)
			}
		}
		row[t.cols] = ar.fromInt(r.RHS)
		if neg {
			row[t.cols] = ar.sub(t.zero, row[t.cols])
		}
		t.rows[i] = row
		switch rels[i] {
		case LE:
			row[slackIdx], t.basis[i] = t.one, slackIdx
			slackIdx++
			continue
		case GE:
			row[slackIdx] = ar.fromInt(-1)
			t.obj[slackIdx] = ar.sub(t.obj[slackIdx], row[slackIdx])
			slackIdx++
		}
		row[artIdx], t.basis[i] = t.one, artIdx
		for _, j := range structColumns(ws, r) {
			if ar.sign(row[j]) != 0 {
				t.obj[j] = ar.sub(t.obj[j], row[j])
			}
		}
		t.obj[artIdx] = ar.sub(t.obj[artIdx], row[artIdx])
		t.obj[t.cols] = ar.sub(t.obj[t.cols], row[t.cols])
		artIdx++
	}
	return t
}

// pivot performs the simplex pivot on (row r, column jc). The pivot element
// may be negative when the row's RHS is zero (degenerate artificial
// eviction); at zero level that is still a valid basis change.
func (t *exactTableau[T]) pivot(r, jc int) {
	ar, pr := t.ar, t.rows[r]
	if pv := pr[jc]; ar.cmp(pv, t.one) != 0 {
		for j, v := range pr {
			if ar.sign(v) != 0 {
				pr[j] = ar.quo(v, pv)
			}
		}
	}
	nz := t.nonZeros(pr)
	for i, row := range t.rows {
		if i != r {
			t.eliminate(row, pr, nz, jc)
		}
	}
	t.eliminate(t.obj, pr, nz, jc)
	t.basis[r] = jc
	t.pivots++
}

// nonZeros lists the non-zero columns of row; the result is valid until the
// next call.
func (t *exactTableau[T]) nonZeros(row []T) []int {
	nz := t.nzBuf[:0]
	for j, v := range row {
		if t.ar.sign(v) != 0 {
			nz = append(nz, j)
		}
	}
	t.nzBuf = nz
	return nz
}

// eliminate subtracts row[jc]·pr from row, where pr[jc] = 1 and nz lists
// pr's non-zero columns.
func (t *exactTableau[T]) eliminate(row, pr []T, nz []int, jc int) {
	f := row[jc]
	if t.ar.sign(f) == 0 {
		return
	}
	for _, j := range nz {
		row[j] = t.ar.subMul(row[j], f, pr[j])
	}
}

// ratioTestRow returns the leaving row for entering column jc, or -1 if the
// column is unbounded. Ties break on the smallest basic variable index
// (Bland-compatible).
func (t *exactTableau[T]) ratioTestRow(jc int) int {
	best := -1
	var bestRatio T
	for i, row := range t.rows {
		if t.ar.sign(row[jc]) <= 0 {
			continue
		}
		ratio := t.ar.quo(row[t.cols], row[jc])
		if best != -1 {
			if c := t.ar.cmp(ratio, bestRatio); c > 0 || (c == 0 && t.basis[i] > t.basis[best]) {
				continue
			}
		}
		best, bestRatio = i, ratio
	}
	return best
}

// optimize pivots until the reduced-cost row is non-negative (minimization
// optimum). allowArtificial controls whether artificial columns may enter
// (false in Phase II). It uses Dantzig pricing and switches to Bland's rule
// after blandAfter pivots to guarantee termination.
func (t *exactTableau[T]) optimize(allowArtificial bool) error {
	m := len(t.rows)
	blandAfter := 60*(m+1) + t.cols
	maxPivots := 400*(m+1) + 8*t.cols + 20000
	limit := t.cols
	if !allowArtificial {
		limit = t.artStart
	}
	for iter := 0; ; iter++ {
		if t.ar.overflowed() {
			return errOverflow
		}
		if t.pivots > maxPivots {
			return fmt.Errorf("lp: pivot limit exceeded (%d pivots)", t.pivots)
		}
		jc := -1
		for j, v := range t.obj[:limit] {
			if t.ar.sign(v) >= 0 {
				continue
			}
			if iter >= blandAfter {
				jc = j // Bland: smallest index with negative reduced cost
				break
			}
			if jc == -1 || t.ar.cmp(v, t.obj[jc]) < 0 {
				jc = j // Dantzig: most negative reduced cost
			}
		}
		if jc == -1 {
			return nil // optimal
		}
		r := t.ratioTestRow(jc)
		if r == -1 {
			return fmt.Errorf("lp: unbounded (column %d)", jc)
		}
		t.pivot(r, jc)
	}
}

// driveOutArtificials removes artificial variables left basic at level zero
// after Phase I, pivoting them out where possible and discarding redundant
// rows otherwise.
func (t *exactTableau[T]) driveOutArtificials() {
	for i, row := range t.rows {
		if t.basis[i] < t.artStart {
			continue
		}
		// Basic artificial at zero: pivot on the first structural/slack
		// column the row has, whatever its sign.
		for j, v := range row[:t.artStart] {
			if t.ar.sign(v) != 0 {
				t.pivot(i, j)
				break
			}
		}
	}
	// A row still basic in an artificial is all zeros over the real
	// variables: redundant, drop it.
	keep := 0
	for i, b := range t.basis {
		if b < t.artStart {
			t.rows[keep], t.basis[keep] = t.rows[i], b
			keep++
		}
	}
	t.rows, t.basis = t.rows[:keep], t.basis[:keep]
}

// setObjective installs Phase-II reduced costs for minimizing c·x given the
// current basis: c_j - Σ_i c_{basis[i]} T[i][j].
func (t *exactTableau[T]) setObjective(obj []Entry) {
	for j := range t.obj {
		t.obj[j] = t.zero
	}
	for _, e := range obj {
		t.obj[e.Var] = t.ar.add(t.obj[e.Var], t.ar.fromInt(e.Coef))
	}
	for i, b := range t.basis {
		if t.ar.sign(t.obj[b]) != 0 {
			t.eliminate(t.obj, t.rows[i], t.nonZeros(t.rows[i]), b)
		}
	}
}

// extract returns the structural solution vector.
func (t *exactTableau[T]) extract() []*big.Rat {
	x := make([]*big.Rat, t.n)
	for j := range x {
		x[j] = new(big.Rat)
	}
	for i, b := range t.basis {
		if b < t.n {
			x[b] = t.ar.rat(t.rows[i][t.cols])
		}
	}
	return x
}

// solveExact runs the two-phase simplex on p over ar, with its tableau in
// cells backed by *buf and its other memory in ws, and returns the solved
// tableau — on an error too, for the pivots it took. The result is valid
// only if ar has not overflowed by the time it returns.
func solveExact[T any](p *Problem, ar exactArith[T], buf *[]T, ws *Workspace) (*exactTableau[T], error) {
	t := newExactTableau(p, ar, buf, ws)
	defer func() { ws.nz = t.nzBuf }()
	if err := t.optimize(true); err != nil {
		return t, err
	}
	// Phase-I objective value is -obj[cols].
	if ar.sign(t.obj[t.cols]) < 0 {
		return t, &Infeasible{}
	}
	t.driveOutArtificials()
	if len(p.Objective) > 0 {
		t.setObjective(p.Objective)
		if err := t.optimize(false); err != nil {
			return t, err
		}
	}
	return t, nil
}

// solution is the solved tableau as an exported Solution.
func (t *exactTableau[T]) solution(p *Problem) *Solution {
	objVal := new(big.Rat)
	if len(p.Objective) > 0 {
		objVal.Neg(t.ar.rat(t.obj[t.cols]))
	}
	return &Solution{X: t.extract(), Pivots: t.pivots, Objective: objVal}
}

// SolveRational finds an exact rational solution of p, minimizing the
// objective if one is set. It returns *Infeasible when no non-negative
// solution exists.
//
// The solve runs on word-sized rationals; if any intermediate overflows
// int64 it is discarded and restarted from p on math/big. Both arithmetics
// are exact, so the pivot sequence and the vertex do not depend on which
// one finished.
func SolveRational(p *Problem) (*Solution, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	ws := new(Workspace)
	word := &wordArith{}
	t, err := solveExact[wordRat](p, word, &ws.words, ws)
	if word.overflow {
		return SolveBigRat(p)
	}
	if err != nil {
		return nil, err
	}
	return t.solution(p), nil
}

// relaxRational is SolveRational with its tableau in ws, returning the
// vertex in the arithmetic that solved it.
func relaxRational(p *Problem, ws *Workspace) (relaxation, error) {
	word := &wordArith{}
	t, err := solveExact[wordRat](p, word, &ws.words, ws)
	if word.overflow {
		bt, err := solveExact(p, bigArith{}, new([]*big.Rat), ws)
		if err != nil {
			return relaxation{pivots: bt.pivots, restart: true}, err
		}
		return relaxation{x: ratVertex(bt.extract()), pivots: bt.pivots, restart: true}, nil
	}
	if err != nil {
		return relaxation{pivots: t.pivots}, err
	}
	x := reuse(&ws.xw, t.n)
	for j := range x {
		x[j] = t.zero
	}
	for i, b := range t.basis {
		if b < t.n {
			x[b] = t.rows[i][t.cols]
		}
	}
	return relaxation{x: wordVertex(x), pivots: t.pivots}, nil
}

// SolveBigRat is SolveRational on math/big throughout: the reference the
// word-sized path is tested and benchmarked against.
func SolveBigRat(p *Problem) (*Solution, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	t, err := solveExact(p, bigArith{}, new([]*big.Rat), new(Workspace))
	if err != nil {
		return nil, err
	}
	return t.solution(p), nil
}
