package lp

import (
	"fmt"
	"math"
	"math/big"
)

// floatTableau mirrors exactTableau over float64 arithmetic. It trades
// exactness for speed on large instances; every integer answer produced
// through it is re-verified exactly by Problem.CheckInt before Hydra
// accepts it.
type floatTableau struct {
	rows     [][]float64
	obj      []float64
	basis    []int
	n        int
	cols     int
	artStart int
	pivots   int
}

const (
	fEps      = 1e-9 // pivoting / sign tolerance
	fFeasTol  = 1e-6 // Phase-I objective tolerance
	fRoundTol = 1e-6 // integrality tolerance
)

func newFloatTableau(p *Problem) *floatTableau {
	m := len(p.Rows)
	slacks := 0
	for _, r := range p.Rows {
		if r.Rel != EQ {
			slacks++
		}
	}
	t := &floatTableau{
		n:        p.NumVars,
		artStart: p.NumVars + slacks,
		cols:     p.NumVars + slacks + m,
		basis:    make([]int, m),
	}
	t.rows = make([][]float64, m)
	slackIdx := p.NumVars
	artIdx := t.artStart
	numArt := 0
	for i, r := range p.Rows {
		row := make([]float64, t.cols+1)
		sign := 1.0
		rel := r.Rel
		if r.RHS < 0 {
			sign = -1
			switch rel {
			case LE:
				rel = GE
			case GE:
				rel = LE
			}
		}
		for _, e := range r.Entries {
			row[e.Var] += sign * float64(e.Coef)
		}
		row[t.cols] = sign * float64(r.RHS)
		switch rel {
		case LE:
			row[slackIdx] = 1
			t.basis[i] = slackIdx
			slackIdx++
		case GE:
			row[slackIdx] = -1
			slackIdx++
			row[artIdx] = 1
			t.basis[i] = artIdx
			artIdx++
			numArt++
		case EQ:
			row[artIdx] = 1
			t.basis[i] = artIdx
			artIdx++
			numArt++
		}
		t.rows[i] = row
	}
	used := t.artStart + numArt
	if used < t.cols {
		for i := range t.rows {
			rhs := t.rows[i][t.cols]
			t.rows[i] = t.rows[i][:used+1]
			t.rows[i][used] = rhs
		}
		t.cols = used
	}
	t.obj = make([]float64, t.cols+1)
	for j := t.artStart; j < t.cols; j++ {
		t.obj[j] = 1
	}
	for i, b := range t.basis {
		if b >= t.artStart {
			for j := 0; j <= t.cols; j++ {
				t.obj[j] -= t.rows[i][j]
			}
		}
	}
	return t
}

func (t *floatTableau) pivot(r, jc int) {
	pr := t.rows[r]
	pv := pr[jc]
	if pv != 1 {
		inv := 1 / pv
		for j := 0; j <= t.cols; j++ {
			pr[j] *= inv
		}
	}
	pr[jc] = 1
	for i, row := range t.rows {
		if i == r {
			continue
		}
		f := row[jc]
		if f == 0 {
			continue
		}
		for j := 0; j <= t.cols; j++ {
			row[j] -= f * pr[j]
		}
		row[jc] = 0
	}
	if f := t.obj[jc]; f != 0 {
		for j := 0; j <= t.cols; j++ {
			t.obj[j] -= f * pr[j]
		}
		t.obj[jc] = 0
	}
	t.basis[r] = jc
	t.pivots++
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

func (t *floatTableau) optimize(allowArtificial bool) error {
	m := len(t.rows)
	blandAfter := 60*(m+1) + t.cols
	maxPivots := 400*(m+1) + 8*t.cols + 20000
	limit := t.cols
	if !allowArtificial {
		limit = t.artStart
	}
	for iter := 0; ; iter++ {
		if t.pivots > maxPivots {
			return fmt.Errorf("lp: pivot limit exceeded (%d pivots)", t.pivots)
		}
		jc := -1
		bland := iter >= blandAfter
		if !bland {
			best := -fEps
			for j := 0; j < limit; j++ {
				if t.obj[j] < best {
					best = t.obj[j]
					jc = j
				}
			}
		} else {
			for j := 0; j < limit; j++ {
				if t.obj[j] < -fEps {
					jc = j
					break
				}
			}
		}
		if jc == -1 {
			return nil
		}
		r := t.ratioTestRow(jc, bland)
		if r == -1 {
			return fmt.Errorf("lp: unbounded (column %d)", jc)
		}
		t.pivot(r, jc)
	}
}

func (t *floatTableau) driveOutArtificials() {
	keep := t.rows[:0]
	keepBasis := t.basis[:0]
	for i := 0; i < len(t.rows); i++ {
		if t.basis[i] < t.artStart {
			keep = append(keep, t.rows[i])
			keepBasis = append(keepBasis, t.basis[i])
			continue
		}
		row := t.rows[i]
		jc := -1
		for j := 0; j < t.artStart; j++ {
			if math.Abs(row[j]) > fEps {
				jc = j
				break
			}
		}
		if jc == -1 {
			continue
		}
		t.pivot(i, jc)
		keep = append(keep, t.rows[i])
		keepBasis = append(keepBasis, t.basis[i])
	}
	t.rows = keep
	t.basis = keepBasis
}

func (t *floatTableau) setObjective(obj []Entry) {
	c := make([]float64, t.cols+1)
	for _, e := range obj {
		c[e.Var] += float64(e.Coef)
	}
	for i, b := range t.basis {
		if c[b] == 0 {
			continue
		}
		cb := c[b]
		for j := 0; j <= t.cols; j++ {
			c[j] -= cb * t.rows[i][j]
		}
		c[b] = 0
	}
	t.obj = c
}

func (t *floatTableau) extract() []float64 {
	x := make([]float64, t.n)
	for i, b := range t.basis {
		if b < t.n {
			x[b] = t.rows[i][t.cols]
		}
	}
	return x
}

// SolveFloat finds a float64 solution of p, minimizing the objective if one
// is set. The caller is responsible for exact verification of any integer
// rounding of the result.
func SolveFloat(p *Problem) (*Solution, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	t := newFloatTableau(p)
	if err := t.optimize(true); err != nil {
		return nil, err
	}
	if -t.obj[t.cols] > fFeasTol {
		return nil, &Infeasible{}
	}
	t.driveOutArtificials()
	objVal := 0.0
	if len(p.Objective) > 0 {
		t.setObjective(p.Objective)
		if err := t.optimize(false); err != nil {
			return nil, err
		}
		objVal = -t.obj[t.cols]
	}
	x := t.extract()
	sol := &Solution{X: make([]*big.Rat, len(x)), Pivots: t.pivots, Objective: new(big.Rat).SetFloat64(objVal)}
	for i, v := range x {
		if v < 0 && v > -fEps {
			v = 0
		}
		r := new(big.Rat).SetFloat64(v)
		if r == nil {
			return nil, fmt.Errorf("lp: non-finite solution value for x%d", i)
		}
		sol.X[i] = r
	}
	return sol, nil
}
