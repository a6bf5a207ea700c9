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

// newExactTableau builds the Phase-I tableau for p in cells backed by *buf.
// Rows are normalized to non-negative RHS; LE rows receive slacks (basic
// when possible), GE rows a surplus plus artificial, EQ rows an artificial.
func newExactTableau[T any](p *Problem, ar exactArith[T], buf *[]T) *exactTableau[T] {
	m := len(p.Rows)
	rels := make([]Rel, m) // relation of each row once its RHS is non-negative
	slacks, arts := 0, 0
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
	t := &exactTableau[T]{
		ar:       ar,
		zero:     ar.fromInt(0),
		one:      ar.fromInt(1),
		n:        p.NumVars,
		artStart: p.NumVars + slacks,
		cols:     p.NumVars + slacks + arts,
		basis:    make([]int, m),
		rows:     make([][]T, m),
	}
	width := t.cols + 1
	cells := reuse(buf, (m+1)*width) // one backing array: obj, then the rows
	for i := range cells {
		cells[i] = t.zero
	}
	t.obj = cells[:width:width]
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
		switch rels[i] {
		case LE:
			row[slackIdx], t.basis[i] = t.one, slackIdx
			slackIdx++
		case GE:
			row[slackIdx] = ar.fromInt(-1)
			slackIdx++
			fallthrough
		case EQ:
			row[artIdx], t.basis[i] = t.one, artIdx
			artIdx++
		}
		t.rows[i] = row
	}
	// Phase-I reduced costs: minimize w = Σ artificials. With artificials
	// basic, obj[j] = c_j - Σ_{i basic-artificial} T[i][j].
	for j := t.artStart; j < t.cols; j++ {
		t.obj[j] = t.one
	}
	for i, b := range t.basis {
		if b >= t.artStart {
			for j, v := range t.rows[i] {
				t.obj[j] = ar.sub(t.obj[j], v)
			}
		}
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
// cells backed by *buf. The result is valid only if ar has not overflowed
// by the time it returns.
func solveExact[T any](p *Problem, ar exactArith[T], buf *[]T) (*Solution, error) {
	t := newExactTableau(p, ar, buf)
	if err := t.optimize(true); err != nil {
		return nil, err
	}
	// Phase-I objective value is -obj[cols].
	if ar.sign(t.obj[t.cols]) < 0 {
		return nil, &Infeasible{}
	}
	t.driveOutArtificials()
	objVal := new(big.Rat)
	if len(p.Objective) > 0 {
		t.setObjective(p.Objective)
		if err := t.optimize(false); err != nil {
			return nil, err
		}
		objVal.Neg(ar.rat(t.obj[t.cols]))
	}
	return &Solution{X: t.extract(), Pivots: t.pivots, Objective: objVal}, nil
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
	return solveRational(p, new(workspace))
}

// solveRational is SolveRational with its word-sized tableau in ws.
func solveRational(p *Problem, ws *workspace) (*Solution, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	word := &wordArith{}
	sol, err := solveExact[wordRat](p, word, &ws.words)
	if word.overflow {
		return solveExact(p, bigArith{}, new([]*big.Rat))
	}
	return sol, err
}

// SolveBigRat is SolveRational on math/big throughout: the reference the
// word-sized path is tested and benchmarked against.
func SolveBigRat(p *Problem) (*Solution, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return solveExact(p, bigArith{}, new([]*big.Rat))
}
