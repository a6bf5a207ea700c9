package lp

import (
	"fmt"
	"math"
	"math/big"
)

// floatTableau is the tableau on float64 arithmetic. It trades exactness
// for speed on large instances; every integer answer produced through it
// is re-verified exactly by Problem.CheckInt before Hydra accepts it.
type floatTableau struct {
	tableauShape
	rows  [][]float64
	obj   []float64
	nzBuf []int // scratch behind pivot's non-zero column list
}

const (
	fEps      = 1e-9 // pivoting / sign tolerance
	fFeasTol  = 1e-6 // Phase-I objective tolerance
	fRoundTol = 1e-6 // integrality tolerance
)

// newFloatTableau builds the Phase-I tableau for p, with the column layout
// of newShape, in ws's cells.
func newFloatTableau(p *Problem, ws *Workspace) *floatTableau {
	m := len(p.Rows)
	s, rels := newShape(p, ws)
	t := &floatTableau{
		tableauShape: s,
		rows:         reuse(&ws.floatRows, m),
		nzBuf:        ws.nz,
	}
	width := t.cols + 1
	cells := zeroed(&ws.floats, (m+1)*width) // one backing array: obj, then the rows
	t.obj = cells[:width:width]
	// Phase-I reduced costs: obj[j] = c_j − Σ T[i][j] over the rows i
	// whose basic variable is artificial, folded row by row as each is
	// built, over its non-zero cells only: a zero cell subtracts nothing.
	for j := t.artStart; j < t.cols; j++ {
		t.obj[j] = 1
	}
	slackIdx, artIdx := p.NumVars, t.artStart
	for i, r := range p.Rows {
		row := cells[(i+1)*width : (i+2)*width : (i+2)*width]
		sign := 1.0
		if r.RHS < 0 {
			sign = -1
		}
		for _, e := range r.Entries {
			row[e.Var] += float64(sign * float64(e.Coef)) // no FMA: see eliminateFloat
		}
		row[t.cols] = sign * float64(r.RHS)
		t.rows[i] = row
		switch rels[i] {
		case LE:
			row[slackIdx], t.basis[i] = 1, slackIdx
			slackIdx++
			continue
		case GE:
			row[slackIdx] = -1
			t.obj[slackIdx] -= row[slackIdx]
			slackIdx++
		}
		row[artIdx], t.basis[i] = 1, artIdx
		for _, j := range structColumns(ws, r) {
			if row[j] != 0 {
				t.obj[j] -= row[j]
			}
		}
		t.obj[artIdx] -= row[artIdx]
		t.obj[t.cols] -= row[t.cols]
		artIdx++
	}
	return t
}

// pivot performs the simplex pivot on (row r, column jc). Elimination runs
// over the pivot row's non-zero columns only, as wordTableau.pivot does:
// where pr[j] is zero, row[j] − f·pr[j] is row[j] up to the sign of a
// zero, and nothing downstream tells the two zeros apart.
func (t *floatTableau) pivot(r, jc int) {
	pr := t.rows[r]
	if pv := pr[jc]; pv != 1 {
		inv := 1 / pv
		for j := range pr {
			pr[j] *= inv
		}
	}
	pr[jc] = 1
	nz := t.nzBuf[:0]
	for j, v := range pr {
		if v != 0 {
			nz = append(nz, j)
		}
	}
	t.nzBuf = nz
	for i, row := range t.rows {
		if i != r {
			eliminateFloat(row, pr, nz, jc)
		}
	}
	eliminateFloat(t.obj, pr, nz, jc)
	t.basis[r] = jc
	t.pivots++
}

// eliminateFloat subtracts row[jc]·pr from row, where pr[jc] = 1 and nz
// lists pr's non-zero columns, and clears row[jc] exactly.
//
// The explicit float64(…) around each product here and in the tableau's
// other updates rounds the product before the add: Go may otherwise fuse
// x -= y*z into one FMA instruction on arm64, ppc64le, s390x and riscv64,
// and a fused pivot can pick another vertex than it does on amd64.
func eliminateFloat(row, pr []float64, nz []int, jc int) {
	f := row[jc]
	if f == 0 {
		return
	}
	for _, j := range nz {
		row[j] -= float64(f * pr[j])
	}
	row[jc] = 0
}

func (t *floatTableau) overflowed() bool       { return false }
func (t *floatTableau) phaseIInfeasible() bool { return -t.obj[t.cols] > fFeasTol }

func (t *floatTableau) rhs(i int) *big.Rat {
	if i == -1 {
		return new(big.Rat).SetFloat64(t.obj[t.cols])
	}
	return new(big.Rat).SetFloat64(t.rows[i][t.cols])
}

// ratioTestRow picks the leaving row. During Dantzig pricing, ties break
// on the largest pivot element — this both improves numerical stability
// and substantially reduces degenerate stalling on Hydra's highly
// degenerate equality systems. In the Bland phase ties must break on the
// smallest basic index to preserve the anti-cycling guarantee.
func (t *floatTableau) ratioTestRow(jc int, bland bool) int {
	best := -1
	bestRatio := math.Inf(1)
	for i, row := range t.rows {
		if row[jc] <= fEps {
			continue
		}
		ratio := row[t.cols] / row[jc]
		switch {
		case ratio < bestRatio-fEps:
			best = i
			bestRatio = ratio
		case math.Abs(ratio-bestRatio) <= fEps && best != -1:
			if bland {
				if t.basis[i] < t.basis[best] {
					best = i
					bestRatio = ratio
				}
			} else if row[jc] > t.rows[best][jc] {
				best = i
				bestRatio = ratio
			}
		}
	}
	return best
}

// entering picks the entering column among the first limit, or -1 at the
// optimum: the most negative reduced cost (Dantzig), or under Bland's rule
// the first negative one.
func (t *floatTableau) entering(limit int, bland bool) int {
	jc := -1
	if !bland {
		best := -fEps
		for j := 0; j < limit; j++ {
			if t.obj[j] < best {
				best = t.obj[j]
				jc = j
			}
		}
		return jc
	}
	for j := 0; j < limit; j++ {
		if t.obj[j] < -fEps {
			return j
		}
	}
	return -1
}

// firstNonZero reads cells within fEps of zero as zero.
func (t *floatTableau) firstNonZero(i, limit int) int {
	for j, v := range t.rows[i][:limit] {
		if math.Abs(v) > fEps {
			return j
		}
	}
	return -1
}

func (t *floatTableau) dropArtificialRows() {
	keep := 0
	for i, b := range t.basis {
		if b < t.artStart {
			t.rows[keep], t.basis[keep] = t.rows[i], b
			keep++
		}
	}
	t.rows, t.basis = t.rows[:keep], t.basis[:keep]
}

func (t *floatTableau) setObjective(obj []Entry) {
	c := t.obj
	clear(c)
	for _, e := range obj {
		c[e.Var] += float64(e.Coef)
	}
	for i, b := range t.basis {
		if c[b] == 0 {
			continue
		}
		cb := c[b]
		for j := 0; j <= t.cols; j++ {
			c[j] -= float64(cb * t.rows[i][j]) // no FMA: see eliminateFloat
		}
		c[b] = 0
	}
}

// SolveFloat finds a float64 solution of p, minimizing the objective if one
// is set. The caller is responsible for exact verification of any integer
// rounding of the result.
func SolveFloat(p *Problem) (*Solution, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	ws := new(Workspace)
	t, err := solveFloat(p, ws)
	if err != nil {
		return nil, err
	}
	x, err := t.extract(ws)
	if err != nil {
		return nil, err
	}
	sol := &Solution{X: make([]*big.Rat, len(x)), Pivots: t.pivots, Objective: new(big.Rat)}
	if len(p.Objective) > 0 {
		sol.Objective.SetFloat64(-t.obj[t.cols])
	}
	for i, v := range x {
		sol.X[i] = new(big.Rat).SetFloat64(v)
	}
	return sol, nil
}

// relaxFloat solves p in float64 with its tableau in ws.
func relaxFloat(p *Problem, ws *Workspace) (relaxation, error) {
	t, err := solveFloat(p, ws)
	if err != nil {
		return relaxation{pivots: t.pivots}, err
	}
	x, err := t.extract(ws)
	return relaxation{x: x, pivots: t.pivots}, err
}

// solveFloat runs the two-phase simplex on p in float64 with its tableau
// in ws and returns the solved tableau — on an error too, for the pivots
// it took.
func solveFloat(p *Problem, ws *Workspace) (*floatTableau, error) {
	t := newFloatTableau(p, ws)
	err := twoPhase(t, p)
	ws.nz = t.nzBuf
	return t, err
}

// extract returns the structural solution vector in ws's cells, with
// values within fEps below zero read as zero.
func (t *floatTableau) extract(ws *Workspace) (floatVertex, error) {
	x := zeroed(&ws.xf, t.n)
	for i, b := range t.basis {
		if b < t.n {
			x[b] = t.rows[i][t.cols]
		}
	}
	for i, v := range x {
		if v < 0 && v > -fEps {
			x[i] = 0
		}
		if math.IsInf(v, 0) || math.IsNaN(v) {
			return nil, fmt.Errorf("lp: non-finite solution value for x%d", i)
		}
	}
	return x, nil
}
