package lp

import (
	"errors"
	"fmt"
	"math/big"
	"math/bits"
)

// tableau is a dense simplex tableau: the floatTableau on float64, the
// fraction-free wordTableau, or the bigTableau on math/big that a word
// solve restarts on once a value outgrows its words. The two-phase driver
// (optimize, driveOutArtificials, twoPhase) is written once against this
// interface; a problem without an objective stops after Phase I. The word
// and big tableaus decide on exact values, so they take the same pivots to
// the same vertex; the float tableau decides with tolerances (fEps,
// fFeasTol) and breaks ratio ties its own way.
//
// Column layout: [0,n) structural variables, [n, artStart) slack/surplus
// variables, [artStart, cols) artificial variables; one extra RHS column.
type tableau interface {
	shape() *tableauShape
	// entering picks the entering column among the first limit, or -1 at
	// the optimum: the most negative reduced cost, the first of equals
	// (Dantzig), or under Bland's rule the first negative one.
	entering(limit int, bland bool) int
	// ratioTestRow returns the leaving row for entering column jc, or -1
	// if the column is unbounded. The exact tableaus ignore bland: their
	// ties break on the smallest basic variable index (Bland-compatible).
	ratioTestRow(jc int, bland bool) int
	// pivot performs the simplex pivot on (row r, column jc). The pivot
	// element may be negative when the row's RHS is zero: the degenerate
	// eviction of an artificial before Phase II, at zero level still a
	// valid basis change.
	pivot(r, jc int)
	// firstNonZero is the first column below limit where row i is
	// non-zero, or -1.
	firstNonZero(i, limit int) int
	// dropArtificialRows discards the rows still basic in an artificial.
	dropArtificialRows()
	// phaseIInfeasible reports a positive Phase-I optimum.
	phaseIInfeasible() bool
	// setObjective installs Phase-II reduced costs for minimizing c·x
	// given the current basis: c_j - Σ_i c_{basis[i]} T[i][j].
	setObjective(obj []Entry)
	// rhs is the RHS value of row i, or of the reduced-cost row for i = -1
	// (the negated objective value).
	rhs(i int) *big.Rat
	// overflowed reports that some value was not representable. Everything
	// computed after that point is meaningless and the solve must be
	// discarded.
	overflowed() bool
}

// tableauShape is the part of a tableau the driver reads directly.
type tableauShape struct {
	basis    []int // basic variable per row
	n        int   // structural variables
	cols     int   // total variables (structural + slack + artificial)
	artStart int   // first artificial column
	pivots   int
}

func (s *tableauShape) shape() *tableauShape { return s }

// errOverflow aborts a solve whose arithmetic has overflowed.
var errOverflow = errors.New("lp: exact arithmetic overflowed its word size")

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

// newShape lays out the Phase-I tableau of p: LE rows receive slacks
// (basic when possible), GE rows a surplus plus artificial, EQ rows an
// artificial, once each row is normalized to a non-negative RHS. It
// returns each row's relation after that, and sizes ws's column marks.
func newShape(p *Problem, ws *Workspace) (s tableauShape, rels []Rel) {
	rels = reuse(&ws.rels, len(p.Rows))
	var slacks, arts int
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
	return tableauShape{
		basis:    reuse(&ws.basis, len(p.Rows)),
		n:        p.NumVars,
		artStart: p.NumVars + slacks,
		cols:     p.NumVars + slacks + arts,
	}, rels
}

// optimize pivots until the reduced-cost row is non-negative (minimization
// optimum). allowArtificial controls whether artificial columns may enter
// (false in Phase II). It uses Dantzig pricing and switches to Bland's rule
// after blandAfter pivots to guarantee termination.
func optimize(t tableau, allowArtificial bool) error {
	s := t.shape()
	m := len(s.basis)
	blandAfter := 60*(m+1) + s.cols
	maxPivots := 400*(m+1) + 8*s.cols + 20000
	limit := s.cols
	if !allowArtificial {
		limit = s.artStart
	}
	for iter := 0; ; iter++ {
		if t.overflowed() {
			return errOverflow
		}
		if s.pivots > maxPivots {
			return fmt.Errorf("lp: pivot limit exceeded (%d pivots)", s.pivots)
		}
		bland := iter >= blandAfter
		jc := t.entering(limit, bland)
		if jc == -1 {
			return nil // optimal
		}
		r := t.ratioTestRow(jc, bland)
		if r == -1 {
			return fmt.Errorf("lp: unbounded (column %d)", jc)
		}
		t.pivot(r, jc)
	}
}

// driveOutArtificials prepares Phase II: it removes the artificial
// variables Phase I left basic at level zero, pivoting them out where
// possible and discarding redundant rows otherwise.
func driveOutArtificials(t tableau) {
	s := t.shape()
	for i, b := range s.basis {
		// Basic artificial at zero: pivot on the first structural/slack
		// column the row has, whatever its sign.
		if b >= s.artStart {
			if j := t.firstNonZero(i, s.artStart); j != -1 {
				t.pivot(i, j)
			}
		}
	}
	// A row still basic in an artificial is all zeros over the real
	// variables: redundant, drop it.
	t.dropArtificialRows()
}

// twoPhase runs the two-phase simplex on t, the Phase-I tableau of p. The
// outcome is valid only if t has not overflowed by the time it returns.
//
// A problem without an objective ends at Phase I's feasible basis: the
// artificials still basic there sit at level zero, so evicting them would
// not move the vertex, and only Phase II, whose pricing must not let them
// enter, needs them gone.
func twoPhase(t tableau, p *Problem) error {
	if err := optimize(t, true); err != nil {
		return err
	}
	if t.phaseIInfeasible() {
		return &Infeasible{}
	}
	if len(p.Objective) == 0 {
		return nil
	}
	driveOutArtificials(t)
	t.setObjective(p.Objective)
	return optimize(t, false)
}

// extract returns the structural solution vector of a solved tableau.
func extract(t tableau) []*big.Rat {
	s := t.shape()
	x := make([]*big.Rat, s.n)
	for j := range x {
		x[j] = new(big.Rat)
	}
	for i, b := range s.basis {
		if b < s.n {
			x[b] = t.rhs(i)
		}
	}
	return x
}

// solution is a solved tableau as an exported Solution.
func solution(t tableau, p *Problem) *Solution {
	objVal := new(big.Rat)
	if len(p.Objective) > 0 {
		objVal.Neg(t.rhs(-1))
	}
	return &Solution{X: extract(t), Pivots: t.shape().pivots, Objective: objVal}
}

// wordLimit bounds every numerator and denominator of a wordTableau:
// magnitudes stay below 2⁶². The difference of two values below it is
// below 2⁶³, so an elimination subtracts without a per-cell overflow test,
// and one test of the or-ed magnitudes per row finds any result at or past
// the bound.
const wordLimit = 1 << 62

// reduceBound is the denominator from which an eliminated row is brought
// back to lowest terms. Below it a row keeps whatever common factor it
// has, and an elimination costs no gcd pass over the row; above it the
// pass keeps denominators from compounding towards wordLimit.
const reduceBound = 1 << 20

// wordTableau is the exact tableau on machine words, fraction-free: row i
// holds int64 numerators rows[i] over one positive denominator den[i], so
// that its cell j is rows[i][j]/den[i], and the reduced-cost row likewise
// holds obj over objDen. A row's basic column holds its denominator (the
// value 1). A pivot is integer multiply-subtracts over the pivot row's
// non-zero columns, with no gcd per cell. A row that has, in lowest terms,
// a numerator or denominator at or past wordLimit latches overflow.
type wordTableau struct {
	tableauShape
	rows     [][]int64 // m x (cols+1) numerators; last column is RHS
	den      []int64
	obj      []int64 // reduced-cost numerators, length cols+1 (last = -objective value)
	objDen   int64
	overflow bool
	nzBuf    []int     // scratch behind nonZeros
	wide     []big.Int // scratch behind eliminateWide
}

// newWordTableau builds the Phase-I tableau for p in ws's memory. A
// coefficient or Phase-I reduced cost at or past wordLimit latches
// overflow.
func newWordTableau(p *Problem, ws *Workspace) *wordTableau {
	m := len(p.Rows)
	s, rels := newShape(p, ws)
	t := &wordTableau{
		tableauShape: s,
		rows:         reuse(&ws.wordRows, m),
		den:          reuse(&ws.dens, m),
		objDen:       1,
		nzBuf:        ws.nz,
	}
	width := t.cols + 1
	cells := zeroed(&ws.nums, (m+1)*width) // one backing array: obj, then the rows
	t.obj = cells[:width:width]
	// Every value the construction reads or writes is or-ed into mags, so
	// mags ≥ wordLimit iff one of them is out of range. Until the first
	// is, each sum is of two values below 2⁶², and exact.
	var mags uint64
	// Phase-I reduced costs: minimize w = Σ artificials. With artificials
	// basic, obj[j] = c_j − Σ T[i][j] over the rows i whose basic variable
	// is artificial, folded row by row as each is built, over its non-zero
	// cells only: a zero cell subtracts nothing.
	for j := t.artStart; j < t.cols; j++ {
		t.obj[j] = 1
	}
	slackIdx, artIdx := p.NumVars, t.artStart
	for i, r := range p.Rows {
		row := cells[(i+1)*width : (i+2)*width : (i+2)*width]
		sign := int64(1)
		if r.RHS < 0 {
			sign = -1
		}
		for _, e := range r.Entries {
			v := row[e.Var] + sign*e.Coef
			mags |= abs64(e.Coef) | abs64(v)
			row[e.Var] = v
		}
		row[t.cols] = sign * r.RHS
		mags |= abs64(r.RHS)
		t.rows[i], t.den[i] = row, 1
		switch rels[i] {
		case LE:
			row[slackIdx], t.basis[i] = 1, slackIdx
			slackIdx++
			continue
		case GE:
			row[slackIdx] = -1
			t.obj[slackIdx]++
			slackIdx++
		}
		row[artIdx], t.basis[i] = 1, artIdx
		for _, j := range structColumns(ws, r) {
			if row[j] != 0 {
				t.obj[j] -= row[j]
				mags |= abs64(t.obj[j])
			}
		}
		t.obj[artIdx]--
		t.obj[t.cols] -= row[t.cols]
		mags |= abs64(t.obj[t.cols])
		artIdx++
	}
	t.overflow = mags >= wordLimit
	return t
}

func (t *wordTableau) overflowed() bool       { return t.overflow }
func (t *wordTableau) phaseIInfeasible() bool { return t.obj[t.cols] < 0 }

func (t *wordTableau) rhs(i int) *big.Rat {
	if i == -1 {
		return big.NewRat(t.obj[t.cols], t.objDen)
	}
	return big.NewRat(t.rows[i][t.cols], t.den[i])
}

// entering compares numerators: the reduced-cost row has one denominator.
func (t *wordTableau) entering(limit int, bland bool) int {
	jc := -1
	for j, v := range t.obj[:limit] {
		if v >= 0 {
			continue
		}
		if bland {
			return j
		}
		if jc == -1 || v < t.obj[jc] {
			jc = j
		}
	}
	return jc
}

// ratioTestRow compares rows[i][cols]/rows[i][jc] across rows: each row's
// denominator cancels from its ratio.
func (t *wordTableau) ratioTestRow(jc int, _ bool) int {
	best := -1
	for i, row := range t.rows {
		if row[jc] <= 0 {
			continue
		}
		if best != -1 {
			b := t.rows[best]
			if c := cmpFrac(row[t.cols], row[jc], b[t.cols], b[jc]); c > 0 || (c == 0 && t.basis[i] > t.basis[best]) {
				continue
			}
		}
		best = i
	}
	return best
}

func (t *wordTableau) pivot(r, jc int) {
	if t.overflow {
		return
	}
	pr := t.rows[r]
	pd := normalize(pr, jc)
	t.den[r] = pd
	nz, prMax := t.nonZeros(pr)
	for i, row := range t.rows {
		if i != r {
			t.eliminate(row, &t.den[i], pr, pd, nz, prMax, jc)
		}
	}
	t.eliminate(t.obj, &t.objDen, pr, pd, nz, prMax, jc)
	t.basis[r] = jc
	t.pivots++
}

// normalize divides the pivot row pr by its cell jc and returns the row's
// new denominator. Row r over den[r] divided by pr[jc]/den[r] is pr over
// pr[jc]: the old denominator drops out, and a negative pivot negates the
// row, which keeps every magnitude. The row is then brought to lowest
// terms, one gcd per pivot rather than per eliminated row: an integral
// pivot row gets denominator 1, so every elimination by it takes a = 1,
// and a fractional one the smallest a it can.
func normalize(pr []int64, jc int) int64 {
	pv := pr[jc]
	if pv < 0 {
		for j, v := range pr {
			pr[j] = -v
		}
		pv = -pv
	}
	if pv > 1 {
		reduce(pr, &pv)
	}
	return pv
}

// nonZeros lists the non-zero columns of row and returns the largest of
// their magnitudes; the list is valid until the next call.
func (t *wordTableau) nonZeros(row []int64) (nz []int, most uint64) {
	nz = t.nzBuf[:0]
	for j, v := range row {
		if v != 0 {
			nz = append(nz, j)
			most = max(most, abs64(v))
		}
	}
	t.nzBuf = nz
	return nz, most
}

// eliminate clears column jc of row, numerators over *den, with the pivot
// row pr over pd, whose cell jc is pd (the value 1); nz lists pr's non-zero
// columns and prMax is the largest of their magnitudes. With f = row[jc],
// g = gcd(|f|, pd), a = pd/g and b = f/g:
//
//	row ← a·row − b·pr,  *den ← a·*den
//
// When pd divides f, a is 1 and only pr's non-zero columns change; that is
// every elimination by an integral pivot row. A product a·row[j], a·*den
// or b·pr[j] that would reach wordLimit in magnitude sends the row to
// eliminateWide, and a result that does brings the row to lowest terms:
// overflow latches only if the row, in lowest terms, still does not fit.
//
//hydra:hotpath
func (t *wordTableau) eliminate(row []int64, den *int64, pr []int64, pd int64, nz []int, prMax uint64, jc int) {
	f := row[jc]
	if f == 0 || t.overflow {
		return
	}
	a, b := int64(1), f
	if pd != 1 {
		g := int64(gcd64(abs64(f), uint64(pd)))
		a, b = pd/g, f/g
	}
	if hi, lo := bits.Mul64(abs64(b), prMax); hi != 0 || lo >= wordLimit {
		t.eliminateWide(row, den, pr, a, b)
		return
	}
	if a != 1 {
		most := uint64(*den)
		for _, v := range row {
			most = max(most, abs64(v))
		}
		if hi, lo := bits.Mul64(uint64(a), most); hi != 0 || lo >= wordLimit {
			t.eliminateWide(row, den, pr, a, b)
			return
		}
		for j, v := range row {
			row[j] = a * v
		}
		*den *= a
	}
	var or uint64
	for _, j := range nz {
		v := row[j] - b*pr[j]
		row[j] = v
		or |= abs64(v)
	}
	switch {
	case or >= wordLimit:
		// Each result is a difference of two values below 2⁶², exact in
		// an int64.
		reduce(row, den)
		for _, v := range row {
			if abs64(v) >= wordLimit {
				t.overflow = true
				return
			}
		}
	case a != 1 && *den >= reduceBound:
		reduce(row, den)
	}
}

// eliminateWide is eliminate's row ← a·row − b·pr, *den ← a·*den for a
// row whose products do not all fit a word: it computes the row on
// math/big, brings it to lowest terms, and keeps it if every value then
// fits, or latches overflow. It runs only where the word path would
// otherwise give up, so its allocations are off the hot path.
func (t *wordTableau) eliminateWide(row []int64, den *int64, pr []int64, a, b int64) {
	if len(t.wide) < len(row)+5 {
		t.wide = make([]big.Int, len(row)+5)
	}
	av, bv, bp, d, g := &t.wide[0], &t.wide[1], &t.wide[2], &t.wide[3], &t.wide[4]
	nums := t.wide[5 : len(row)+5]
	av.SetInt64(a)
	bv.SetInt64(b)
	d.Mul(av, d.SetInt64(*den))
	g.Set(d)
	for j, v := range row {
		n := nums[j].SetInt64(v)
		n.Sub(n.Mul(n, av), bp.Mul(bv, bp.SetInt64(pr[j])))
		g.GCD(nil, nil, g, n)
	}
	limit := big.NewInt(wordLimit)
	if d.Quo(d, g).Cmp(limit) >= 0 {
		t.overflow = true
		return
	}
	for j := range nums {
		if nums[j].Quo(&nums[j], g).CmpAbs(limit) >= 0 {
			t.overflow = true
			return
		}
	}
	for j := range nums {
		row[j] = nums[j].Int64()
	}
	*den = d.Int64()
}

// reduce divides row's numerators and *den by their greatest common
// divisor.
func reduce(row []int64, den *int64) {
	g := uint64(*den)
	for _, v := range row {
		if g == 1 {
			return
		}
		if v != 0 {
			g = gcd64(abs64(v), g)
		}
	}
	if g == 1 {
		return
	}
	d := int64(g)
	for j, v := range row {
		row[j] = v / d
	}
	*den /= d
}

func (t *wordTableau) firstNonZero(i, limit int) int {
	for j, v := range t.rows[i][:limit] {
		if v != 0 {
			return j
		}
	}
	return -1
}

func (t *wordTableau) dropArtificialRows() {
	keep := 0
	for i, b := range t.basis {
		if b < t.artStart {
			t.rows[keep], t.den[keep], t.basis[keep] = t.rows[i], t.den[i], b
			keep++
		}
	}
	t.rows, t.den, t.basis = t.rows[:keep], t.den[:keep], t.basis[:keep]
}

func (t *wordTableau) setObjective(obj []Entry) {
	clear(t.obj)
	t.objDen = 1
	var mags uint64
	for _, e := range obj {
		v := t.obj[e.Var] + e.Coef
		mags |= abs64(e.Coef) | abs64(v)
		t.obj[e.Var] = v
	}
	if mags >= wordLimit {
		t.overflow = true
		return
	}
	for i, b := range t.basis {
		if t.obj[b] != 0 {
			nz, most := t.nonZeros(t.rows[i])
			t.eliminate(t.obj, &t.objDen, t.rows[i], t.den[i], nz, most, b)
		}
	}
}

// vertex returns the structural solution in lowest terms, in ws's memory.
func (t *wordTableau) vertex(ws *Workspace) wordVertex {
	x := reuse(&ws.xw, t.n)
	for j := range x {
		x[j] = wordRat{0, 1}
	}
	for i, b := range t.basis {
		if b < t.n {
			x[b] = lowest(t.rows[i][t.cols], t.den[i])
		}
	}
	return x
}

// solveWord runs the exact simplex on p on machine words, with its memory
// in ws, and returns the solved tableau — on an error too, for the pivots
// it took. The outcome is valid only if the tableau has not overflowed.
func solveWord(p *Problem, ws *Workspace) (*wordTableau, error) {
	t := newWordTableau(p, ws)
	err := twoPhase(t, p)
	ws.nz = t.nzBuf
	return t, err
}

// bigTableau is the exact tableau on math/big: it never overflows, and
// allocates on every operation. Cells are immutable; each operation
// stores a fresh one.
type bigTableau struct {
	tableauShape
	rows  [][]*big.Rat // m x (cols+1); last column is RHS
	obj   []*big.Rat   // reduced-cost row, length cols+1 (last = -objective value)
	nzBuf []int
}

var ratZero, ratOne = new(big.Rat), big.NewRat(1, 1)

// newBigTableau builds the Phase-I tableau for p, as newWordTableau does.
func newBigTableau(p *Problem, ws *Workspace) *bigTableau {
	m := len(p.Rows)
	s, rels := newShape(p, ws)
	t := &bigTableau{tableauShape: s, rows: make([][]*big.Rat, m)}
	width := t.cols + 1
	cells := make([]*big.Rat, (m+1)*width)
	for i := range cells {
		cells[i] = ratZero
	}
	t.obj = cells[:width:width]
	for j := t.artStart; j < t.cols; j++ {
		t.obj[j] = ratOne
	}
	slackIdx, artIdx := p.NumVars, t.artStart
	for i, r := range p.Rows {
		row := cells[(i+1)*width : (i+2)*width : (i+2)*width]
		neg := r.RHS < 0
		for _, e := range r.Entries {
			if c := big.NewRat(e.Coef, 1); neg {
				row[e.Var] = new(big.Rat).Sub(row[e.Var], c)
			} else {
				row[e.Var] = new(big.Rat).Add(row[e.Var], c)
			}
		}
		row[t.cols] = big.NewRat(r.RHS, 1)
		if neg {
			row[t.cols] = new(big.Rat).Neg(row[t.cols])
		}
		t.rows[i] = row
		switch rels[i] {
		case LE:
			row[slackIdx], t.basis[i] = ratOne, slackIdx
			slackIdx++
			continue
		case GE:
			row[slackIdx] = big.NewRat(-1, 1)
			t.obj[slackIdx] = new(big.Rat).Sub(t.obj[slackIdx], row[slackIdx])
			slackIdx++
		}
		row[artIdx], t.basis[i] = ratOne, artIdx
		for _, j := range structColumns(ws, r) {
			if row[j].Sign() != 0 {
				t.obj[j] = new(big.Rat).Sub(t.obj[j], row[j])
			}
		}
		t.obj[artIdx] = new(big.Rat).Sub(t.obj[artIdx], row[artIdx])
		t.obj[t.cols] = new(big.Rat).Sub(t.obj[t.cols], row[t.cols])
		artIdx++
	}
	return t
}

func (t *bigTableau) overflowed() bool       { return false }
func (t *bigTableau) phaseIInfeasible() bool { return t.obj[t.cols].Sign() < 0 }

func (t *bigTableau) rhs(i int) *big.Rat {
	if i == -1 {
		return new(big.Rat).Set(t.obj[t.cols])
	}
	return new(big.Rat).Set(t.rows[i][t.cols])
}

func (t *bigTableau) entering(limit int, bland bool) int {
	jc := -1
	for j, v := range t.obj[:limit] {
		if v.Sign() >= 0 {
			continue
		}
		if bland {
			return j
		}
		if jc == -1 || v.Cmp(t.obj[jc]) < 0 {
			jc = j
		}
	}
	return jc
}

func (t *bigTableau) ratioTestRow(jc int, _ bool) int {
	best := -1
	var bestRatio *big.Rat
	for i, row := range t.rows {
		if row[jc].Sign() <= 0 {
			continue
		}
		ratio := new(big.Rat).Quo(row[t.cols], row[jc])
		if best != -1 {
			if c := ratio.Cmp(bestRatio); c > 0 || (c == 0 && t.basis[i] > t.basis[best]) {
				continue
			}
		}
		best, bestRatio = i, ratio
	}
	return best
}

func (t *bigTableau) pivot(r, jc int) {
	pr := t.rows[r]
	if pv := pr[jc]; pv.Cmp(ratOne) != 0 {
		for j, v := range pr {
			if v.Sign() != 0 {
				pr[j] = new(big.Rat).Quo(v, pv)
			}
		}
	}
	nz := t.nonZeros(pr)
	for i, row := range t.rows {
		if i != r {
			eliminateBig(row, pr, nz, jc)
		}
	}
	eliminateBig(t.obj, pr, nz, jc)
	t.basis[r] = jc
	t.pivots++
}

// nonZeros lists the non-zero columns of row; the result is valid until the
// next call.
func (t *bigTableau) nonZeros(row []*big.Rat) []int {
	nz := t.nzBuf[:0]
	for j, v := range row {
		if v.Sign() != 0 {
			nz = append(nz, j)
		}
	}
	t.nzBuf = nz
	return nz
}

// eliminateBig subtracts row[jc]·pr from row, where pr[jc] = 1 and nz lists
// pr's non-zero columns.
func eliminateBig(row, pr []*big.Rat, nz []int, jc int) {
	f := row[jc]
	if f.Sign() == 0 {
		return
	}
	for _, j := range nz {
		z := new(big.Rat).Mul(f, pr[j])
		row[j] = z.Sub(row[j], z)
	}
}

func (t *bigTableau) firstNonZero(i, limit int) int {
	for j, v := range t.rows[i][:limit] {
		if v.Sign() != 0 {
			return j
		}
	}
	return -1
}

func (t *bigTableau) dropArtificialRows() {
	keep := 0
	for i, b := range t.basis {
		if b < t.artStart {
			t.rows[keep], t.basis[keep] = t.rows[i], b
			keep++
		}
	}
	t.rows, t.basis = t.rows[:keep], t.basis[:keep]
}

func (t *bigTableau) setObjective(obj []Entry) {
	for j := range t.obj {
		t.obj[j] = ratZero
	}
	for _, e := range obj {
		t.obj[e.Var] = new(big.Rat).Add(t.obj[e.Var], big.NewRat(e.Coef, 1))
	}
	for i, b := range t.basis {
		if t.obj[b].Sign() != 0 {
			eliminateBig(t.obj, t.rows[i], t.nonZeros(t.rows[i]), b)
		}
	}
}

// solveBig is solveWord on math/big.
func solveBig(p *Problem, ws *Workspace) (*bigTableau, error) {
	t := newBigTableau(p, ws)
	return t, twoPhase(t, p)
}

// SolveRational finds an exact rational solution of p, minimizing the
// objective if one is set. It returns *Infeasible when no non-negative
// solution exists.
//
// The solve runs on machine words; if a value outgrows them it is
// discarded and restarted from p on math/big. Both are exact, so the pivot
// sequence and the vertex do not depend on which one finished.
func SolveRational(p *Problem) (*Solution, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	t, err := solveWord(p, new(Workspace))
	if t.overflow {
		return SolveBigRat(p)
	}
	if err != nil {
		return nil, err
	}
	return solution(t, p), nil
}

// relaxRational is SolveRational with its tableau in ws, returning the
// vertex in the arithmetic that solved it.
func relaxRational(p *Problem, ws *Workspace) (relaxation, error) {
	t, err := solveWord(p, ws)
	if t.overflow {
		bt, err := solveBig(p, ws)
		if err != nil {
			return relaxation{pivots: bt.pivots, restart: true}, err
		}
		return relaxation{x: ratVertex(extract(bt)), pivots: bt.pivots, restart: true}, nil
	}
	if err != nil {
		return relaxation{pivots: t.pivots}, err
	}
	return relaxation{x: t.vertex(ws), pivots: t.pivots}, nil
}

// SolveBigRat is SolveRational on math/big throughout: the reference the
// word-sized path is tested and benchmarked against.
func SolveBigRat(p *Problem) (*Solution, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	t, err := solveBig(p, new(Workspace))
	if err != nil {
		return nil, err
	}
	return solution(t, p), nil
}
