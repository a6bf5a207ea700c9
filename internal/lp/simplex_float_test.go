package lp

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
)

// densePivot is floatTableau.pivot eliminating over every column of every
// row: the reference the sparse pivot is held to. Its products are
// rounded before the subtraction, as eliminateFloat's are.
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
			row[j] -= float64(f * pr[j])
		}
		row[jc] = 0
	}
	if f := t.obj[jc]; f != 0 {
		for j := 0; j <= t.cols; j++ {
			t.obj[j] -= float64(f * pr[j])
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
		sparse, dense := newFloatTableau(p, new(Workspace)), newFloatTableau(p, new(Workspace))
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

// phaseIReference is the Phase-I cost row as a dense sweep computes it:
// c_j, then each row whose basic variable is artificial subtracted from
// it over every column, in row order.
func phaseIReference[T any](rows [][]T, basis []int, artStart, cols int, one T, sub func(a, b T) T) []T {
	obj := make([]T, cols+1)
	for j := range obj {
		obj[j] = sub(one, one) // zero in T
	}
	for j := artStart; j < cols; j++ {
		obj[j] = one
	}
	for i, b := range basis {
		if b >= artStart {
			for j, v := range rows[i] {
				obj[j] = sub(obj[j], v)
			}
		}
	}
	return obj
}

// TestPhaseIFoldMatchesDense builds tableaus for mixed problems whose
// rows name a variable twice (sometimes cancelling to a zero cell) and
// whose coefficients are past float64's integer range, so that the order
// in which rows are subtracted shows in the rounding. The Phase-I cost
// row folded from the artificial rows' non-zero cells must equal the
// dense sweep's bit for bit (and value for value on the word tableau,
// whose rows all have denominator 1 until the first pivot).
func TestPhaseIFoldMatchesDense(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	for i := 0; i < 300; i++ {
		p := randomMixed(rng, i%2 == 0)
		for r := range p.Rows {
			row := &p.Rows[r]
			for k := range row.Entries {
				if i%3 == 0 {
					row.Entries[k].Coef *= 1<<52 + int64(rng.Intn(1<<20))
				}
			}
			if len(row.Entries) > 0 && rng.Intn(2) == 0 {
				e := row.Entries[rng.Intn(len(row.Entries))]
				if rng.Intn(2) == 0 {
					e.Coef = -e.Coef // the cell cancels to zero
				}
				row.Entries = append(row.Entries, e)
			}
		}
		ws := new(Workspace)
		ft := newFloatTableau(p, ws)
		want := phaseIReference(ft.rows, ft.basis, ft.artStart, ft.cols, 1.0, func(a, b float64) float64 { return a - b })
		for j := range want {
			if math.Float64bits(ft.obj[j]) != math.Float64bits(want[j]) {
				t.Fatalf("problem %d, float column %d: folded %v, dense %v", i, j, ft.obj[j], want[j])
			}
		}
		wt := newWordTableau(p, ws)
		if wt.overflow {
			t.Fatalf("problem %d overflowed the word tableau", i)
		}
		wantW := phaseIReference(wt.rows, wt.basis, wt.artStart, wt.cols, 1, func(a, b int64) int64 { return a - b })
		for j := range wantW {
			if wt.obj[j] != wantW[j] {
				t.Fatalf("problem %d, word column %d: folded %v, dense %v", i, j, wt.obj[j], wantW[j])
			}
		}
	}
}
