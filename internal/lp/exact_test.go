package lp

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/big"
	"math/rand"
	"slices"
	"testing"
)

// sameOutcome fails the test unless the two solves agree on the verdict,
// every component of X, the objective and the pivot count.
func sameOutcome(t *testing.T, what string, got *Solution, gotErr error, want *Solution, wantErr error) {
	t.Helper()
	if (gotErr == nil) != (wantErr == nil) || (gotErr != nil && gotErr.Error() != wantErr.Error()) {
		t.Fatalf("%s: verdict %v, reference %v", what, gotErr, wantErr)
	}
	if gotErr != nil {
		return
	}
	if got.Pivots != want.Pivots {
		t.Fatalf("%s: %d pivots, reference %d", what, got.Pivots, want.Pivots)
	}
	if got.Objective.Cmp(want.Objective) != 0 {
		t.Fatalf("%s: objective %v, reference %v", what, got.Objective, want.Objective)
	}
	for i := range want.X {
		if got.X[i].Cmp(want.X[i]) != 0 {
			t.Fatalf("%s: x%d = %v, reference %v", what, i, got.X[i], want.X[i])
		}
	}
}

// randomMixed draws a small problem with EQ/LE/GE rows, signed
// coefficients, negative right-hand sides and (half the time) an objective.
// Rows are measured against a hidden point when feasible is set, and drawn
// blindly (so usually contradictory) otherwise.
func randomMixed(rng *rand.Rand, feasible bool) *Problem {
	n := 2 + rng.Intn(8)
	hidden := make([]int64, n)
	for i := range hidden {
		hidden[i] = int64(rng.Intn(20))
	}
	p := &Problem{NumVars: n}
	for r, m := 0, 1+rng.Intn(7); r < m; r++ {
		row := Row{Rel: Rel(rng.Intn(3)), Name: fmt.Sprintf("r%d", r)}
		var lhs int64
		for v := 0; v < n; v++ {
			if c := int64(rng.Intn(9) - 4); c != 0 && rng.Intn(2) == 0 {
				row.Entries = append(row.Entries, Entry{Var: v, Coef: c})
				lhs += c * hidden[v]
			}
		}
		switch {
		case !feasible:
			row.RHS = int64(rng.Intn(61) - 30)
		case row.Rel == LE:
			row.RHS = lhs + int64(rng.Intn(5))
		case row.Rel == GE:
			row.RHS = lhs - int64(rng.Intn(5))
		default:
			row.RHS = lhs
		}
		p.AddRow(row)
	}
	if rng.Intn(2) == 0 {
		for v := 0; v < n; v++ {
			if c := int64(rng.Intn(7) - 1); c != 0 {
				p.Objective = append(p.Objective, Entry{Var: v, Coef: c})
			}
		}
	}
	return p
}

// scaleRows multiplies each row of p, right-hand side included, by its own
// factor in [reduceBound, 2·reduceBound): the same polytope, but pivots on
// elements past the reduction bound, off the small path on which
// denominators stay below it and no row is reduced. A row's denominator
// collects the factors of the rows combined into it, and often needs more
// than a word although every cell fits one in lowest terms.
func scaleRows(rng *rand.Rand, p *Problem) {
	for i := range p.Rows {
		scaleRow(&p.Rows[i], reduceBound+rng.Int63n(reduceBound))
	}
}

// scaleAll is scaleRows with one factor for every row: no row's
// denominator collects more than that factor's divisors.
func scaleAll(rng *rand.Rand, p *Problem) {
	s := reduceBound + rng.Int63n(reduceBound)
	for i := range p.Rows {
		scaleRow(&p.Rows[i], s)
	}
}

func scaleRow(r *Row, s int64) {
	for j := range r.Entries {
		r.Entries[j].Coef *= s
	}
	r.RHS *= s
}

// widthTableau is the math/big tableau recording whether a row it passes
// through, written as the word tableau holds it (in lowest terms over one
// denominator), has a numerator or denominator at or past wordLimit.
type widthTableau struct {
	*bigTableau
	wide bool
}

func (t *widthTableau) check(row []*big.Rat) {
	limit := big.NewInt(wordLimit)
	den := big.NewInt(1)
	for _, v := range row {
		g := new(big.Int).GCD(nil, nil, den, v.Denom())
		den.Mul(den, g.Quo(v.Denom(), g))
	}
	if den.Cmp(limit) >= 0 {
		t.wide = true
	}
	for _, v := range row {
		n := new(big.Int).Quo(den, v.Denom())
		if n.Mul(n, v.Num()).CmpAbs(limit) >= 0 {
			t.wide = true
		}
	}
}

func (t *widthTableau) checkAll() {
	for _, row := range t.rows {
		t.check(row)
	}
	t.check(t.obj)
}

func (t *widthTableau) pivot(r, jc int) {
	t.bigTableau.pivot(r, jc)
	t.checkAll()
}

// setObjective is bigTableau.setObjective, checking the reduced-cost row
// after each elimination, as the word tableau builds it.
func (t *widthTableau) setObjective(obj []Entry) {
	for j := range t.obj {
		t.obj[j] = ratZero
	}
	for _, e := range obj {
		t.obj[e.Var] = new(big.Rat).Add(t.obj[e.Var], big.NewRat(e.Coef, 1))
	}
	t.check(t.obj)
	for i, b := range t.basis {
		if t.obj[b].Sign() != 0 {
			eliminateBig(t.obj, t.rows[i], t.nonZeros(t.rows[i]), b)
			t.check(t.obj)
		}
	}
}

// needsWide reports whether the exact simplex on p passes through a row
// that no word tableau can hold: the word tableau must overflow exactly
// then. (Tableau construction is checked once built; the Phase-I sums it
// folds are checked only through their final values.)
func needsWide(p *Problem) bool {
	t := &widthTableau{bigTableau: newBigTableau(p, new(Workspace))}
	t.checkAll()
	twoPhase(t, p)
	return t.wide
}

// TestWordMatchesBigRat holds the word tableau to the math/big one on
// random mixed problems: the same verdict, vertex, objective and pivots.
// The word tableau overflows exactly where a row in lowest terms over one
// denominator needs a value past wordLimit; that happens only with a
// factor per row, where SolveRational's restart is compared instead and
// both paths must occur.
func TestWordMatchesBigRat(t *testing.T) {
	for _, arm := range []struct {
		name       string
		scale      func(*rand.Rand, *Problem)
		mayRestart bool
	}{
		{"single-digit", nil, false},
		{"rows scaled past the small path", scaleRows, true},
		{"rows scaled by one factor", scaleAll, false},
	} {
		t.Run(arm.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(14))
			verdicts := map[string]int{}
			for i := 0; i < 600; i++ {
				p := randomMixed(rng, i%3 != 0)
				if arm.scale != nil {
					arm.scale(rng, p)
				}
				var got *Solution
				tab, gotErr := solveWord(p, new(Workspace))
				switch {
				case tab.overflow && !arm.mayRestart:
					t.Fatalf("problem %d overflowed the word tableau", i)
				case tab.overflow != needsWide(p):
					t.Fatalf("problem %d: word tableau overflowed %v, a row needs more than a word %v", i, tab.overflow, !tab.overflow)
				case tab.overflow:
					verdicts["restarted"]++
					got, gotErr = SolveRational(p)
				case gotErr == nil:
					got = solution(tab, p)
				}
				want, wantErr := SolveBigRat(p)
				sameOutcome(t, fmt.Sprintf("problem %d", i), got, gotErr, want, wantErr)
				var inf *Infeasible
				switch {
				case wantErr == nil:
					verdicts["solved"]++
				case errors.As(wantErr, &inf):
					verdicts["infeasible"]++
				default:
					verdicts["unbounded"]++
				}
			}
			if verdicts["solved"] < 100 || verdicts["infeasible"] < 100 {
				t.Fatalf("generator is lopsided: %v", verdicts)
			}
			if arm.mayRestart && (verdicts["restarted"] < 100 || verdicts["restarted"] > 500) {
				t.Fatalf("want both word solves and restarts: %v", verdicts)
			}
		})
	}
}

// chainPrimes multiply up to about 2^80.
var chainPrimes = []int64{65521, 65519, 65497, 65479, 65449}

// overflowProblems are built so that some row of the word tableau, in
// lowest terms, has a value at or past wordLimit. In the last two every
// cell of every tableau the simplex passes through fits a word in lowest
// terms; only a row's common denominator or its numerators over it do not.
func overflowProblems() map[string]*Problem {
	out := map[string]*Problem{}

	// The Phase-I reduced costs sum two coefficients near 2^62.
	big62 := &Problem{NumVars: 3}
	big62.AddRow(Row{Entries: []Entry{{0, 1<<62 - 1}, {1, 1<<62 - 3}, {2, 1}}, Rel: EQ, RHS: 1<<62 + 7})
	big62.AddRow(Row{Entries: []Entry{{0, 1<<61 + 1}, {1, 5}, {2, 1<<62 - 5}}, Rel: EQ, RHS: 1 << 62})
	big62.AddRow(Row{Entries: []Entry{{0, 1}, {1, 1}, {2, 1}}, Rel: LE, RHS: 3})
	out["coefficients near 2^62"] = big62

	// A right-hand side at the edge of the range.
	edge := &Problem{NumVars: 2}
	edge.AddRow(Row{Entries: []Entry{{0, -1}, {1, -1}}, Rel: LE, RHS: math.MinInt64 + 1})
	edge.AddRow(Row{Entries: []Entry{{0, 3}, {1, -7}}, Rel: EQ, RHS: 5})
	edge.Objective = []Entry{{0, 2}, {1, 3}}
	out["RHS MinInt64+1"] = edge

	// MinInt64 itself: negating the row is already out of range.
	minRHS := &Problem{NumVars: 1}
	minRHS.AddRow(Row{Entries: []Entry{{0, -1}}, Rel: LE, RHS: math.MinInt64})
	minRHS.Objective = []Entry{{0, 1}}
	out["RHS MinInt64"] = minRHS

	// x_i = x_{i-1}/p_i: the denominators multiply up past 2^63.
	chain := &Problem{NumVars: 6}
	chain.AddRow(Row{Entries: []Entry{{0, 1}}, Rel: EQ, RHS: 1})
	for i, prime := range chainPrimes {
		chain.AddRow(Row{Entries: []Entry{{i + 1, prime}, {i, -1}}, Rel: EQ, RHS: 0})
	}
	out["chained denominators"] = chain

	// The sum row's denominator reaches p0·p1·p2·p3 ≈ 2^64 (the product
	// a·D_i) while each of its cells is −1/p_k, 1 or 5.
	out["denominator product past 2^62"] = sumOverPivots(chainPrimes[:4])

	// x0 enters through p0·x0 ≤ 0 and x0 + y = 2^50 becomes y − s0/p0 =
	// 2^50, over p0: the scaled numerator a·N_i = p0·2^50 ≈ 2^66.
	scaled := &Problem{NumVars: 2}
	scaled.AddRow(Row{Entries: []Entry{{0, chainPrimes[0]}}, Rel: LE, RHS: 0})
	scaled.AddEq([]int{0, 1}, 1<<50, "sum")
	out["scaled numerator past 2^62"] = scaled

	return out
}

// sumOverPivots is x_k enters degenerately through p_k·x_k ≤ 0, one pivot
// row over p_k per prime, and x_0 + … + x_{k-1} + y = 5 ends as
// y − Σ s_k/p_k = 5, over the product of the primes.
func sumOverPivots(primes []int64) *Problem {
	p := &Problem{NumVars: len(primes) + 1}
	vars := make([]int, 0, len(primes)+1)
	for k, prime := range primes {
		p.AddRow(Row{Entries: []Entry{{k, prime}}, Rel: LE, RHS: 0})
		vars = append(vars, k)
	}
	p.AddEq(append(vars, len(primes)), 5, "sum")
	return p
}

// TestWordHoldsRowsThatFit: rows whose products, or whose values before
// reduction, pass wordLimit stay in words when they fit in lowest terms.
func TestWordHoldsRowsThatFit(t *testing.T) {
	// x0 enters through x0 − 2^40·x1 ≤ 1, an integral pivot row. Its
	// multiple b·N_r subtracted from 2^22·x0 − (2^62−1)·x1 ≥ 2^22 is −2^62
	// in column x1, and the cell it leaves there is 1; the reduced-cost
	// row's is −1.
	product := &Problem{NumVars: 2}
	product.AddRow(Row{Entries: []Entry{{0, 1}, {1, -1 << 40}}, Rel: LE, RHS: 1})
	product.AddRow(Row{Entries: []Entry{{0, 1 << 22}, {1, -(1<<62 - 1)}}, Rel: GE, RHS: 1 << 22})

	// The sum row's denominator passes reduceBound at the second pivot,
	// where reducing finds no common factor, and still fits a word at
	// 1031·1033·1039·1049 ≈ 2^40.
	bound := sumOverPivots([]int64{1031, 1033, 1039, 1049})

	for name, p := range map[string]*Problem{"product b·N_r past 2^62": product, "past the reduction bound": bound} {
		tab, err := solveWord(p, new(Workspace))
		if tab.overflow || err != nil {
			t.Fatalf("%s: overflow %v, err %v", name, tab.overflow, err)
		}
		want, wantErr := SolveBigRat(p)
		sameOutcome(t, name, solution(tab, p), err, want, wantErr)
	}
	tab, _ := solveWord(bound, new(Workspace))
	if most := slices.Max(tab.den); most < reduceBound {
		t.Fatalf("largest denominator %d is below the reduction bound", most)
	}
}

func TestOverflowFallsBackToBigRat(t *testing.T) {
	for name, p := range overflowProblems() {
		if tab, err := solveWord(p, new(Workspace)); !tab.overflow {
			t.Errorf("%s: word tableau did not overflow (err %v)", name, err)
		}
		if !needsWide(p) {
			t.Errorf("%s: every row fits a word in lowest terms", name)
		}
		got, gotErr := SolveRational(p)
		want, wantErr := SolveBigRat(p)
		sameOutcome(t, name, got, gotErr, want, wantErr)
		if wantErr != nil {
			t.Errorf("%s: reference solve failed: %v", name, wantErr)
		}
	}
	// The last link of the chain is 1/(p1·…·p5), which no word can hold.
	sol, err := SolveRational(overflowProblems()["chained denominators"])
	if err != nil {
		t.Fatal(err)
	}
	den := big.NewInt(1)
	for _, prime := range chainPrimes {
		den.Mul(den, big.NewInt(prime))
	}
	if want := new(big.Rat).SetFrac(big.NewInt(1), den); sol.X[5].Cmp(want) != 0 {
		t.Fatalf("x5 = %v, want %v", sol.X[5], want)
	}
}

// TestWordArithEdges pins the word-sized helpers the tableau and its
// vertices are built on at the edges of the int64 range: abs64, mag,
// gcd64, lowest and cmpFrac.
func TestWordArithEdges(t *testing.T) {
	const min, max = math.MinInt64, math.MaxInt64
	for _, c := range []struct {
		v        int64
		abs, mag uint64
	}{
		{0, 0, 0}, {1, 1, 1}, {-1, 1, 0}, {max, max, max},
		{min, 1 << 63, max}, {min + 1, max, max - 1},
		{-reduceBound, reduceBound, reduceBound - 1},
	} {
		if got := abs64(c.v); got != c.abs {
			t.Errorf("abs64(%d) = %d, want %d", c.v, got, c.abs)
		}
		if got := mag(c.v); got != c.mag {
			t.Errorf("mag(%d) = %d, want %d", c.v, got, c.mag)
		}
	}

	for _, c := range []struct {
		a, b, want uint64
	}{
		{0, 0, 0}, {0, 7, 7}, {7, 0, 7}, {1, 1 << 63, 1}, {1 << 63, 1 << 62, 1 << 62},
		{abs64(-12), abs64(-18), 6}, {abs64(min), abs64(-6), 2}, {abs64(min), abs64(min), 1 << 63},
		{max, max - 1, 1}, {3 * 5 * 7 * 11, 7 * 11 * 13, 77},
	} {
		if got := gcd64(c.a, c.b); got != c.want {
			t.Errorf("gcd64(%d, %d) = %d, want %d", c.a, c.b, got, c.want)
		}
	}

	w := func(n, d int64) wordRat { return wordRat{n, d} }
	for _, c := range []struct {
		n, d int64
		want wordRat
	}{
		{0, 7, w(0, 1)}, {6, 4, w(3, 2)}, {-6, 4, w(-3, 2)}, {5, 1, w(5, 1)},
		{min, 2, w(min/2, 1)}, {min, 3, w(min, 3)}, {max, max, w(1, 1)},
		{-max, max - 1, w(-max, max-1)}, {3 * 5 * 7, 5 * 7 * 11, w(3, 11)},
	} {
		if got := lowest(c.n, c.d); got != c.want {
			t.Errorf("lowest(%d, %d) = %v, want %v", c.n, c.d, got, c.want)
		}
	}

	for _, c := range []struct {
		a, b wordRat
		want int
	}{
		{w(-1, 2), w(1, 3), -1}, {w(1, 3), w(-1, 2), 1}, {w(0, 1), w(-1, max), 1}, {w(0, 1), w(1, max), -1},
		{w(1, 3), w(1, 2), -1}, {w(-1, 3), w(-1, 2), 1}, {w(2, 3), w(2, 3), 0},
		{w(max, max-1), w(max-1, max-2), -1}, {w(min, max), w(min+1, max-1), 1},
		{w(min, 1), w(max, 1), -1}, {w(max, 2), w(max, 3), 1},
	} {
		if got := cmpFrac(c.a.num, c.a.den, c.b.num, c.b.den); got != c.want {
			t.Errorf("cmpFrac(%v, %v) = %d, want %d", c.a, c.b, got, c.want)
		}
		if want := big.NewRat(c.a.num, c.a.den).Cmp(big.NewRat(c.b.num, c.b.den)); want != c.want {
			t.Errorf("table is wrong: big.Rat says cmp(%v, %v) = %d", c.a, c.b, want)
		}
	}
}

// rowOpFromBytes decodes fuzzer input into one elimination: a width byte,
// a pivot column byte, the eliminated row's denominator, then the pivot
// row's cells and the eliminated row's. Each value is a shift byte and the
// eight bytes of a little-endian word, shifted right so that small values
// are as common as full-width ones, then brought below wordLimit in
// magnitude. A zero pivot element reads as 1.
func rowOpFromBytes(data []byte) (pr, row []int64, den int64, jc int) {
	var buf [9]byte
	next := func() int64 {
		n := copy(buf[:], data)
		data = data[n:]
		clear(buf[n:])
		v := int64(binary.LittleEndian.Uint64(buf[1:])) >> (buf[0] % 64)
		buf = [9]byte{}
		return v % wordLimit
	}
	w := 1 + int(next()%8+8)%8
	jc = int(next()%int64(w)+int64(w)) % w
	if den = int64(abs64(next()) % wordLimit); den == 0 {
		den = 1
	}
	pr, row = make([]int64, w), make([]int64, w)
	for j := range pr {
		pr[j] = next()
	}
	for j := range row {
		row[j] = next()
	}
	if pr[jc] == 0 {
		pr[jc] = 1
	}
	return pr, row, den, jc
}

// rowOpBytes encodes an elimination for rowOpFromBytes, unshifted.
func rowOpBytes(pr, row []int64, den int64, jc int) []byte {
	var out []byte
	for _, v := range append([]int64{int64(len(pr) - 1), int64(jc), den}, append(pr, row...)...) {
		out = binary.LittleEndian.AppendUint64(append(out, 0), uint64(v))
	}
	return out
}

// elimOverflows is when eliminating row over den by the normalized pivot
// row pr over pd must latch overflow: when the result row
// a·row − b·pr over a·den, with f = row[jc], g = gcd(|f|, pd), a = pd/g
// and b = f/g, has in lowest terms a value at or past wordLimit, all on
// math/big.
func elimOverflows(pr []int64, pd int64, row []int64, den int64, jc int) bool {
	if row[jc] == 0 {
		return false
	}
	f, d := big.NewInt(row[jc]), big.NewInt(pd)
	g := new(big.Int).GCD(nil, nil, new(big.Int).Abs(f), d)
	a, b := new(big.Int).Quo(d, g), new(big.Int).Quo(f, g)
	vals := []*big.Int{new(big.Int).Mul(a, big.NewInt(den))}
	common := new(big.Int).Set(vals[0])
	for j := range row {
		v := new(big.Int).Mul(a, big.NewInt(row[j]))
		v.Sub(v, new(big.Int).Mul(b, big.NewInt(pr[j])))
		vals = append(vals, v)
		common.GCD(nil, nil, common, v)
	}
	limit := big.NewInt(wordLimit)
	for _, v := range vals {
		if new(big.Int).Quo(v, common).CmpAbs(limit) >= 0 {
			return true
		}
	}
	return false
}

// FuzzWordArith holds one row operation of the word tableau, normalize
// then eliminate, to math/big: the pivot row it normalizes is pr/pr[jc] in
// lowest terms, every value it leaves is the exact
// row[j]/den − (row[jc]/den)·(pr[j]/pr[jc]) in bounds, in lowest terms
// when the denominator passes reduceBound, and overflow latches exactly
// when elimOverflows says the result does not fit in lowest terms. On the
// same values it checks the word helpers lowest, gcd64 and cmpFrac.
func FuzzWordArith(f *testing.F) {
	const lim = wordLimit - 1
	for _, s := range []struct {
		pr, row []int64
		den     int64
		jc      int
	}{
		{[]int64{1, 2, 0, 5}, []int64{3, 1, 4, 7}, 1, 0},                             // integral pivot row: a = 1
		{[]int64{3, 1, 2, 7}, []int64{2, 5, 1, 9}, 1, 0},                             // a = 3, b = 2
		{[]int64{-4, 2, 0, 6}, []int64{6, 1, 3, 0}, 5, 0},                            // negative pivot, reduced by 2
		{[]int64{1 << 21, 1 << 22, 0, 3 << 21}, []int64{7, 1, 2, 3}, 1, 0},           // normalize reduces to 1
		{[]int64{3, 1, 2, 0}, []int64{5, 10, 15, 20}, 1<<20 - 1, 0},                  // a = 3 takes den past reduceBound: 5 divides out
		{[]int64{1031, 1, 0, 1}, []int64{1033, 1, 1, 5}, 1033, 0},                    // passes reduceBound, nothing to divide
		{[]int64{3, 1, 0, 1}, []int64{1, 1, 1, 1}, 1 << 61, 0},                       // a·den past the limit, in lowest terms too
		{[]int64{5, 1, 0, 1}, []int64{1, lim / 4, 1, 1}, 1, 0},                       // a·row past the limit, in lowest terms too
		{[]int64{1, 1 << 40, 0, 1}, []int64{1 << 22, 5, 0, 1}, 1, 0},                 // b·pr past the limit, result 5 − 2^62 within
		{[]int64{1, -1 << 40, 0, 1}, []int64{1 << 22, -lim, 0, 1}, 1, 0},             // b·pr past, result −1 within
		{[]int64{1, lim, 0, 1}, []int64{1, lim, 0, 1}, 1, 0},                         // at the limit, exact: 0
		{[]int64{-1, lim, -lim, 1}, []int64{-lim, lim, 1, -1}, 1, 0},                 // results past the limit
		{[]int64{7, 0, 0, 0}, []int64{0, 1, 2, 3}, 9, 0},                             // nothing to eliminate
		{[]int64{2, 4, 6, 8}, []int64{5, 1, 2, 3}, 7, 3},                             // pivot column last
		{[]int64{3, 1, 0, 0}, []int64{2, 4, 8, 16}, 1 << 61, 0},                      // a·den past the limit, fits once reduced by 2
		{[]int64{1, 1, 0, 0}, []int64{2, -(lim - 1), 0, 4}, 2, 0},                    // a result at the limit, fits once reduced by 2
		{[]int64{6, 4, 2, 0}, []int64{1, 1, 1, 1}, 1, 0},                             // normalize reduces to 3
		{[]int64{-3, 1, 2, 0}, []int64{-2, 0, 0, 5}, 11, 0},                          // negative pivot, a = 3
		{[]int64{lim, 1, 0, 0}, []int64{1, 0, 0, 1}, 1, 0},                           // pivot element at the limit
		{[]int64{1, 0, 0, 0, 0, 0, 0, 5}, []int64{2, 3, 5, 7, 11, 13, 17, 19}, 1, 0}, // widest row
		{[]int64{5}, []int64{3}, 7, 0},                                               // one column
	} {
		f.Add(rowOpBytes(s.pr, s.row, s.den, s.jc))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		raw, row, den, jc := rowOpFromBytes(data)
		want := make([]*big.Rat, len(row))
		fv := big.NewRat(row[jc], den)
		for j := range row {
			q := big.NewRat(raw[j], raw[jc])
			want[j] = q.Sub(big.NewRat(row[j], den), q.Mul(q, fv))
		}

		pr := slices.Clone(raw)
		pd := normalize(pr, jc)
		if pd < 1 || pd >= wordLimit || pr[jc] != pd {
			t.Fatalf("normalize(%v, %d) = %v over %d", raw, jc, pr, pd)
		}
		g := uint64(pd)
		for j := range pr {
			if abs64(pr[j]) >= wordLimit || big.NewRat(pr[j], pd).Cmp(big.NewRat(raw[j], raw[jc])) != 0 {
				t.Fatalf("normalize(%v, %d) = %v over %d", raw, jc, pr, pd)
			}
			g = gcd64(abs64(pr[j]), g)
		}
		if g != 1 {
			t.Fatalf("normalize(%v, %d) = %v over %d, not in lowest terms", raw, jc, pr, pd)
		}

		for j, v := range row {
			r, p := big.NewRat(v, den), big.NewRat(pr[j], pd)
			if got := lowest(v, den); got.num != r.Num().Int64() || got.den != r.Denom().Int64() {
				t.Fatalf("lowest(%d, %d) = %v, want %v", v, den, got, r)
			}
			x, y := new(big.Int).SetUint64(abs64(v)), new(big.Int).SetUint64(abs64(raw[j]))
			if got, want := gcd64(abs64(v), abs64(raw[j])), x.GCD(nil, nil, x, y); got != want.Uint64() {
				t.Fatalf("gcd64(%d, %d) = %d, want %v", abs64(v), abs64(raw[j]), got, want)
			}
			if got, want := cmpFrac(v, den, pr[j], pd), r.Cmp(p); got != want {
				t.Fatalf("cmpFrac(%d/%d, %d/%d) = %d, want %d", v, den, pr[j], pd, got, want)
			}
		}

		wt := &wordTableau{}
		nz, prMax := wt.nonZeros(pr)
		got, gotDen := slices.Clone(row), den
		wt.eliminate(got, &gotDen, pr, pd, nz, prMax, jc)
		if latch := elimOverflows(pr, pd, row, den, jc); wt.overflow != latch {
			t.Fatalf("eliminate(%v/%d by %v/%d at %d): overflow %v, want %v", row, den, pr, pd, jc, wt.overflow, latch)
		}
		if wt.overflow {
			return
		}
		if gotDen < 1 || gotDen >= wordLimit || got[jc] != 0 {
			t.Fatalf("eliminate(%v/%d by %v/%d at %d) = %v/%d", row, den, pr, pd, jc, got, gotDen)
		}
		g = uint64(gotDen)
		for j, v := range got {
			if abs64(v) >= wordLimit || big.NewRat(v, gotDen).Cmp(want[j]) != 0 {
				t.Fatalf("eliminate(%v/%d by %v/%d at %d) = %v/%d, want %v", row, den, pr, pd, jc, got, gotDen, want)
			}
			g = gcd64(abs64(v), g)
		}
		if gotDen != den && gotDen >= reduceBound && g != 1 {
			t.Fatalf("eliminate(%v/%d by %v/%d at %d) = %v/%d, not reduced", row, den, pr, pd, jc, got, gotDen)
		}
	})
}

// problemFromBytes decodes fuzzer input into a small problem: a header of
// (variables, rows, shift, objective flag), then per row a relation byte, a
// right-hand side byte and one coefficient byte per variable. shift scales
// every odd row, so the fuzzer can reach the overflow fallback.
func problemFromBytes(data []byte) *Problem {
	next := func() int64 {
		if len(data) == 0 {
			return 0
		}
		b := int8(data[0])
		data = data[1:]
		return int64(b)
	}
	n := 1 + int(uint8(next()))%8
	m := int(uint8(next())) % 7
	shift := uint(uint8(next())) % 62
	p := &Problem{NumVars: n}
	if next()%2 != 0 {
		for v := 0; v < n; v++ {
			if c := next() % 8; c != 0 {
				p.Objective = append(p.Objective, Entry{Var: v, Coef: c})
			}
		}
	}
	for r := 0; r < m; r++ {
		scale := int64(1)
		if r%2 == 1 {
			scale <<= shift
		}
		row := Row{Rel: Rel(uint8(next()) % 3), RHS: next() * scale}
		for v := 0; v < n; v++ {
			if c := next() % 16; c != 0 {
				row.Entries = append(row.Entries, Entry{Var: v, Coef: c * scale})
			}
		}
		p.AddRow(row)
	}
	return p
}

// FuzzSolveExact asserts that SolveRational — word arithmetic, falling back
// on overflow — is indistinguishable from the pure math/big solve.
func FuzzSolveExact(f *testing.F) {
	for _, seed := range solveExactSeeds {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		p := problemFromBytes(data)
		got, gotErr := SolveRational(p)
		want, wantErr := SolveBigRat(p)
		sameOutcome(t, fmt.Sprintf("%+v", *p), got, gotErr, want, wantErr)
		if len(p.Objective) == 0 {
			phaseIVertex(t, fmt.Sprintf("%+v", *p), p)
		}
	})
}

// cloneWord copies a word tableau, cells and all.
func cloneWord(t *wordTableau) *wordTableau {
	c := *t
	c.basis = slices.Clone(t.basis)
	c.rows = make([][]int64, len(t.rows))
	for i, row := range t.rows {
		c.rows[i] = slices.Clone(row)
	}
	c.den, c.obj = slices.Clone(t.den), slices.Clone(t.obj)
	c.nzBuf, c.wide = nil, nil
	return &c
}

// cloneBig copies a math/big tableau; its cells are immutable, so the
// copy shares them.
func cloneBig(t *bigTableau) *bigTableau {
	c := *t
	c.basis = slices.Clone(t.basis)
	c.rows = make([][]*big.Rat, len(t.rows))
	for i, row := range t.rows {
		c.rows[i] = slices.Clone(row)
	}
	c.obj, c.nzBuf = slices.Clone(t.obj), nil
	return &c
}

// evictionKeepsVertex applies driveOutArtificials to ev, a copy of tab,
// which twoPhase solved without an objective, and fails unless the
// structural vertex is identical and the pivots did not fall. It returns
// the eviction's pivots and the redundant rows it dropped.
func evictionKeepsVertex(t *testing.T, what string, tab, ev tableau) (pivots, dropped int) {
	t.Helper()
	s, e := tab.shape(), ev.shape()
	rows := len(e.basis)
	driveOutArtificials(ev)
	if ev.overflowed() {
		return 0, 0 // a word eviction past a word; math/big is checked too
	}
	if e.pivots < s.pivots {
		t.Fatalf("%s: %T: %d pivots after eviction, %d before", what, tab, e.pivots, s.pivots)
	}
	x, y := extract(tab), extract(ev)
	for j := range x {
		if x[j].Cmp(y[j]) != 0 {
			t.Fatalf("%s: %T: x%d = %v at Phase I's basis, %v after eviction", what, tab, j, x[j], y[j])
		}
	}
	return e.pivots - s.pivots, rows - len(e.basis)
}

// phaseIVertex solves p, which has no objective, on the word and the
// math/big tableau, and holds the vertex each ends at to the one evicting
// its basic artificials gives (see evictionKeepsVertex). It returns the
// pivots the evictions took and the rows they dropped.
func phaseIVertex(t *testing.T, what string, p *Problem) (pivots, dropped int) {
	t.Helper()
	if wt, err := solveWord(p, new(Workspace)); err == nil && !wt.overflow {
		pivots, dropped = evictionKeepsVertex(t, what, wt, cloneWord(wt))
	}
	if bt, err := solveBig(p, new(Workspace)); err == nil {
		n, d := evictionKeepsVertex(t, what, bt, cloneBig(bt))
		pivots, dropped = pivots+n, dropped+d
	}
	return pivots, dropped
}

// TestPhaseIVertexIsTheVertex: a relaxation without an objective ends at
// Phase I's feasible basis, where artificials may still be basic at level
// zero. Evicting them is degenerate in exact arithmetic, so the vertex
// must be the one the eviction would leave, on Hydra-shaped 0/1 systems
// (with duplicated rows too, whose artificials cannot be evicted and whose
// rows are dropped) and on mixed problems with their objectives removed.
func TestPhaseIVertexIsTheVertex(t *testing.T) {
	rng := rand.New(rand.NewSource(67))
	for _, family := range []struct {
		name string
		draw func() *Problem
	}{
		{"0/1", func() *Problem {
			p, _ := randomFeasible(rng, 4+rng.Intn(40), 2+rng.Intn(10))
			return p
		}},
		{"0/1 with duplicated rows", func() *Problem {
			p, _ := randomFeasible(rng, 4+rng.Intn(40), 2+rng.Intn(10))
			for _, i := range rng.Perm(len(p.Rows))[:1+rng.Intn(len(p.Rows))] {
				p.AddRow(p.Rows[i])
			}
			return p
		}},
		{"0/1 with branching rows through the hidden point", func() *Problem {
			p, hidden := randomFeasible(rng, 4+rng.Intn(40), 2+rng.Intn(10))
			for range 1 + rng.Intn(6) {
				j := rng.Intn(p.NumVars)
				p.AddRow(Row{Entries: []Entry{{j, 1}}, Rel: LE + Rel(rng.Intn(2)), RHS: hidden[j]})
			}
			return p
		}},
		{"mixed", func() *Problem {
			p := randomMixed(rng, true)
			p.Objective = nil
			return p
		}},
	} {
		var pivots, dropped int
		for i := range 300 {
			n, d := phaseIVertex(t, fmt.Sprintf("%s problem %d", family.name, i), family.draw())
			pivots, dropped = pivots+n, dropped+d
		}
		t.Logf("%s: evictions took %d pivots and dropped %d rows", family.name, pivots, dropped)
		if pivots == 0 {
			t.Errorf("%s: no eviction pivoted", family.name)
		}
	}
}

// BenchmarkSolveExact is the arithmetic rung: the same exact simplex, same
// pivots, on the fraction-free word tableau and on math/big rationals.
func BenchmarkSolveExact(b *testing.B) {
	p, _ := randomFeasible(rand.New(rand.NewSource(7)), 120, 14)
	for _, arm := range []struct {
		name  string
		solve func(*Problem) (*Solution, error)
	}{{"word", SolveRational}, {"big", SolveBigRat}} {
		b.Run(arm.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := arm.solve(p); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
