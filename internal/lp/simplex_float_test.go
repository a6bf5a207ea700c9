package lp

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
)

// densePivot is floatTableau.pivot eliminating over every column of every
// row: the reference the sparse pivot is held to.
func densePivot(t *floatTableau, r, jc int) {
	pr := t.rows[r]
	if pv := pr[jc]; pv != 1 {
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

// sameTableau reports the first cell in which a and b differ by more than
// the sign of a zero.
func sameTableau(a, b *floatTableau) error {
	if !slices.Equal(a.basis, b.basis) {
		return fmt.Errorf("basis %v, dense %v", a.basis, b.basis)
	}
	same := func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) || x == 0 && y == 0 }
	for i, row := range append([][]float64{a.obj}, a.rows...) {
		want := b.obj
		if i > 0 {
			want = b.rows[i-1]
		}
		for j := range row {
			if !same(row[j], want[j]) {
				return fmt.Errorf("row %d (0 is the objective) column %d: %v, dense %v", i, j, row[j], want[j])
			}
		}
	}
	return nil
}

// TestSparsePivotMatchesDense drives Phase I on seeded random problems —
// Hydra-shaped 0/1 systems, and mixed ones with signed coefficients and
// inequalities — pivoting one tableau sparsely and a twin densely, and
// requires the two to agree bit for bit after every pivot.
func TestSparsePivotMatchesDense(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	pivots := 0
	for i := 0; i < 300; i++ {
		var p *Problem
		if i%2 == 0 {
			p, _ = randomFeasible(rng, 3+rng.Intn(40), 1+rng.Intn(10))
		} else {
			p = randomMixed(rng, i%4 == 1)
		}
		sparse, dense := newFloatTableau(p, new([]float64)), newFloatTableau(p, new([]float64))
		blandAfter := 60*(len(sparse.rows)+1) + sparse.cols
		for iter := 0; iter < 5000; iter++ {
			bland := iter >= blandAfter
			jc := sparse.entering(sparse.cols, bland)
			if jc == -1 {
				break
			}
			r := sparse.ratioTestRow(jc, bland)
			if r == -1 {
				break
			}
			sparse.pivot(r, jc)
			densePivot(dense, r, jc)
			if err := sameTableau(sparse, dense); err != nil {
				t.Fatalf("problem %d, pivot %d on (%d, %d): %v", i, iter, r, jc, err)
			}
			pivots++
		}
	}
	if pivots < 1000 {
		t.Fatalf("only %d pivots compared", pivots)
	}
}
