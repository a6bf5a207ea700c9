package lp

import (
	"errors"
	"fmt"
	"math"
	"math/big"
	"math/rand"
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
// factor in [smallBound, 2·smallBound): the same polytope, but a tableau
// whose unpivoted rows and reduced costs are past subMul's small path.
func scaleRows(rng *rand.Rand, p *Problem) {
	for i := range p.Rows {
		s := smallBound + rng.Int63n(smallBound)
		for j := range p.Rows[i].Entries {
			p.Rows[i].Entries[j].Coef *= s
		}
		p.Rows[i].RHS *= s
	}
}

func TestWordMatchesBigRat(t *testing.T) {
	for _, arm := range []struct {
		name   string
		scaled bool
	}{{"single-digit", false}, {"rows scaled past the small path", true}} {
		t.Run(arm.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(14))
			verdicts := map[string]int{}
			for i := 0; i < 600; i++ {
				p := randomMixed(rng, i%3 != 0)
				if arm.scaled {
					scaleRows(rng, p)
				}
				word := &wordArith{}
				var got *Solution
				tab, gotErr := solveExact(p, word, new([]wordRat), new(Workspace))
				if gotErr == nil {
					got = tab.solution(p)
				}
				if word.overflow {
					t.Fatalf("problem %d overflowed the word arithmetic", i)
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
		})
	}
}

// chainPrimes multiply up to about 2^80.
var chainPrimes = []int64{65521, 65519, 65497, 65479, 65449}

// overflowProblems are built so that some intermediate of the simplex
// cannot be held in an int64 numerator or denominator.
func overflowProblems() map[string]*Problem {
	out := map[string]*Problem{}

	// Eliminating x0 multiplies two coefficients near 2^62.
	big62 := &Problem{NumVars: 3}
	big62.AddRow(Row{Entries: []Entry{{0, 1<<62 - 1}, {1, 1<<62 - 3}, {2, 1}}, Rel: EQ, RHS: 1<<62 + 7})
	big62.AddRow(Row{Entries: []Entry{{0, 1<<61 + 1}, {1, 5}, {2, 1<<62 - 5}}, Rel: EQ, RHS: 1 << 62})
	big62.AddRow(Row{Entries: []Entry{{0, 1}, {1, 1}, {2, 1}}, Rel: LE, RHS: 3})
	out["coefficients near 2^62"] = big62

	// A right-hand side at the edge of the range, scaled by a pivot.
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
	return out
}

func TestOverflowFallsBackToBigRat(t *testing.T) {
	for name, p := range overflowProblems() {
		word := &wordArith{}
		if _, err := solveExact(p, word, new([]wordRat), new(Workspace)); !word.overflow {
			t.Errorf("%s: word arithmetic did not overflow (err %v)", name, err)
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

func TestWordArithEdges(t *testing.T) {
	const min, max = math.MinInt64, math.MaxInt64
	w := func(n, d int64) wordRat { return wordRat{n, d} }
	add, sub, mul, quo := (*wordArith).add, (*wordArith).sub, (*wordArith).mul, (*wordArith).quo
	for _, c := range []struct {
		name     string
		op       func(k *wordArith, a, b wordRat) wordRat
		a, b     wordRat
		want     wordRat
		overflow bool
	}{
		{"max+1", add, w(max, 1), w(1, 1), w(0, 1), true},
		{"min+(-1)", add, w(min, 1), w(-1, 1), w(0, 1), true},
		{"min+max", add, w(min, 1), w(max, 1), w(-1, 1), false},
		{"0-min", sub, w(0, 1), w(min, 1), w(0, 1), true},
		{"-1-min", sub, w(-1, 1), w(min, 1), w(max, 1), false},
		{"min-1", sub, w(min, 1), w(1, 1), w(0, 1), true},
		{"-1*min", mul, w(-1, 1), w(min, 1), w(0, 1), true},
		{"1*min", mul, w(1, 1), w(min, 1), w(min, 1), false},
		{"2^32*-2^31", mul, w(1<<32, 1), w(-1<<31, 1), w(min, 1), false},
		{"2^32*2^31", mul, w(1<<32, 1), w(1<<31, 1), w(0, 1), true},
		{"min/2 * 2", mul, w(min, 1), w(1, 2), w(min/2, 1), false},
		{"cross-cancel", mul, w(max, 3), w(3, max), w(1, 1), false},
		{"1/min", quo, w(1, 1), w(min, 1), w(0, 1), true},
		{"min/min", quo, w(min, 1), w(min, 1), w(0, 1), true},
		{"min/-1", quo, w(min, 1), w(-1, 1), w(0, 1), true},
		{"max/-max", quo, w(max, 1), w(-max, 1), w(-1, 1), false},
		{"-6/4 / 3/-1", quo, w(-3, 2), w(-3, 1), w(1, 2), false},
		{"1/3+1/6", add, w(1, 3), w(1, 6), w(1, 2), false},
		{"1/3-1/3", sub, w(1, 3), w(1, 3), w(0, 1), false},
		{"-1/2-1/2", sub, w(-1, 2), w(1, 2), w(-1, 1), false},
		{"1/max+1/(max-1)", add, w(1, max), w(1, max-1), w(0, 1), true},
	} {
		k := &wordArith{}
		if got := c.op(k, c.a, c.b); got != c.want || k.overflow != c.overflow {
			t.Errorf("%s: got %v overflow=%v, want %v overflow=%v", c.name, got, k.overflow, c.want, c.overflow)
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

	k := &wordArith{}
	for _, c := range []struct {
		a, b wordRat
		want int
	}{
		{w(-1, 2), w(1, 3), -1}, {w(1, 3), w(-1, 2), 1}, {w(0, 1), w(-1, max), 1}, {w(0, 1), w(1, max), -1},
		{w(1, 3), w(1, 2), -1}, {w(-1, 3), w(-1, 2), 1}, {w(2, 3), w(2, 3), 0},
		{w(max, max-1), w(max-1, max-2), -1}, {w(min, max), w(min+1, max-1), 1},
		{w(min, 1), w(max, 1), -1}, {w(max, 2), w(max, 3), 1},
	} {
		if got := k.cmp(c.a, c.b); got != c.want {
			t.Errorf("cmp(%v, %v) = %d, want %d", c.a, c.b, got, c.want)
		}
		if want := k.rat(c.a).Cmp(k.rat(c.b)); want != c.want {
			t.Errorf("table is wrong: big.Rat says cmp(%v, %v) = %d", c.a, c.b, want)
		}
	}
	if k.overflow {
		t.Error("cmp latched overflow")
	}
}

// wordOf converts r to a wordRat, reporting false when a part does not fit
// int64.
func wordOf(r *big.Rat) (wordRat, bool) {
	if !r.Num().IsInt64() || !r.Denom().IsInt64() {
		return wordRat{}, false
	}
	return wordRat{r.Num().Int64(), r.Denom().Int64()}, true
}

// FuzzWordArith checks each wordArith operation against math/big: the
// result is the exact rational in lowest terms, or overflow is latched. It
// also checks that subMul's small path returns what the checked path it
// bypasses returns, overflow included. An input is three (num, den) pairs,
// normalized to lowest terms with den > 0 (den 0 reads as 1); a pair that
// does not fit a wordRat then (MinInt64/-1) is skipped.
func FuzzWordArith(f *testing.F) {
	const b, min, max = smallBound, math.MinInt64, math.MaxInt64
	for _, s := range [][6]int64{
		{b - 1, 1, b - 1, 1, b - 1, 1}, // integers at the small path's edge
		{-b, 1, -b, 1, -b, 1},          // -B still takes the small path
		{-(b - 1), 1, b - 1, 1, -(b - 1), 1},
		{b, 1, 1, 1, 1, 1}, // +B takes the checked path
		{1, 1, -b - 1, 1, 1, 1},
		{1, b - 1, 1, b - 1, -1, b - 1}, // largest small denominators
		{b - 1, b - 2, -(b - 3), b - 1, b - 5, b - 2},
		{1, b, 1, 1, 1, 1}, // denominator B: checked
		{1, 3, 1, 2, 1, b},
		{6, 35, 2, 5, 3, 7},         // cancels to 0 on the small path
		{6 * b, 35, 2 * b, 5, 3, 7}, // cancels to 0 on the checked path
		{1, 6, 1, 2, 1, 3},          // cancels to 0 over a common denominator
		{min, 1, 1, 1, 1, 1},
		{min + 1, 1, -1, 1, 1, 1},
		{min, 1, min, -1, 1, 1}, // MinInt64/-1 does not fit: skipped
		{max, 1, -1, 1, 1, 1},
		{max, 1, 1, max, max, 1},
		{1, max, 1, max - 1, 1, max - 2},
		{min + 1, max, max, min + 1, max - 1, 1},
		{0, 0, 0, 0, 0, 0},
	} {
		f.Add(s[0], s[1], s[2], s[3], s[4], s[5])
	}
	f.Fuzz(func(t *testing.T, an, ad, fn, fd, pn, pd int64) {
		var w [3]wordRat
		var r [3]*big.Rat
		for i, nd := range [3][2]int64{{an, ad}, {fn, fd}, {pn, pd}} {
			if nd[1] == 0 {
				nd[1] = 1
			}
			r[i] = big.NewRat(nd[0], nd[1])
			var ok bool
			if w[i], ok = wordOf(r[i]); !ok {
				t.Skip()
			}
		}
		a, fr, p := w[0], w[1], w[2]
		check := func(name string, op func(k *wordArith) wordRat, want *big.Rat) {
			k := &wordArith{}
			got := op(k)
			if k.overflow {
				return
			}
			if ww, ok := wordOf(want); !ok || got != ww {
				t.Fatalf("%s(%v, %v, %v) = %v, want %v", name, a, fr, p, got, want)
			}
		}
		prod := new(big.Rat).Mul(r[1], r[2])
		check("subMul", func(k *wordArith) wordRat { return k.subMul(a, fr, p) }, prod.Sub(r[0], prod))
		check("add", func(k *wordArith) wordRat { return k.add(a, fr) }, new(big.Rat).Add(r[0], r[1]))
		check("sub", func(k *wordArith) wordRat { return k.sub(a, fr) }, new(big.Rat).Sub(r[0], r[1]))
		check("mul", func(k *wordArith) wordRat { return k.mul(a, fr) }, new(big.Rat).Mul(r[0], r[1]))
		if fr.num != 0 {
			check("quo", func(k *wordArith) wordRat { return k.quo(a, fr) }, new(big.Rat).Quo(r[0], r[1]))
		}
		small, checked := &wordArith{}, &wordArith{}
		got, want := small.subMul(a, fr, p), checked.addSub(a, checked.mul(fr, p), subOK)
		if got != want || small.overflow != checked.overflow {
			t.Fatalf("subMul(%v, %v, %v) = %v overflow=%v, checked path %v overflow=%v",
				a, fr, p, got, small.overflow, want, checked.overflow)
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
	})
}

// BenchmarkSolveExact is the arithmetic rung: the same exact simplex, same
// pivots, on word-sized and on math/big rationals.
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
