package lp

import (
	"errors"
	"math/big"
	"math/rand"
	"testing"
	"testing/quick"
)

func eq(vars []int, rhs int64, name string) Row {
	entries := make([]Entry, len(vars))
	for i, v := range vars {
		entries[i] = Entry{Var: v, Coef: 1}
	}
	return Row{Entries: entries, Rel: EQ, RHS: rhs, Name: name}
}

// paperPerson is the "Person" example of §3.2 / Figure 4b: the
// region-partitioned LP
//
//	y1 + y2 = 1000
//	y2 + y3 = 2000
//	y1 + y2 + y3 + y4 = 8000
func paperPerson() *Problem {
	p := &Problem{NumVars: 4}
	p.AddRow(eq([]int{0, 1}, 1000, "cc1"))
	p.AddRow(eq([]int{1, 2}, 2000, "cc2"))
	p.AddRow(eq([]int{0, 1, 2, 3}, 8000, "total"))
	return p
}

func TestSolveRationalPaperExample(t *testing.T) {
	sol, err := SolveRational(paperPerson())
	if err != nil {
		t.Fatalf("SolveRational: %v", err)
	}
	x := RoundSolution(sol.X)
	if v := paperPerson().CheckInt(x); v != "" {
		t.Fatalf("solution violates constraints: %s (x=%v)", v, x)
	}
}

func TestSolveFloatPaperExample(t *testing.T) {
	sol, err := SolveFloat(paperPerson())
	if err != nil {
		t.Fatalf("SolveFloat: %v", err)
	}
	x := RoundSolution(sol.X)
	if v := paperPerson().CheckInt(x); v != "" {
		t.Fatalf("solution violates constraints: %s (x=%v)", v, x)
	}
}

func TestSolveIntegerPaperExample(t *testing.T) {
	for _, backend := range []Backend{Rational, Float, Auto} {
		sol, err := SolveInteger(paperPerson(), IntOptions{Backend: backend})
		if err != nil {
			t.Fatalf("backend %v: %v", backend, err)
		}
		if !sol.Exact {
			t.Fatalf("backend %v: solution not exact", backend)
		}
	}
}

func TestInfeasibleDetection(t *testing.T) {
	p := &Problem{NumVars: 2}
	p.AddRow(eq([]int{0, 1}, 10, "a"))
	p.AddRow(eq([]int{0}, 20, "b")) // x0=20 forces x1=-10 < 0
	if _, err := SolveRational(p); err == nil {
		t.Fatal("rational: expected infeasible")
	} else {
		var inf *Infeasible
		if !errors.As(err, &inf) {
			t.Fatalf("rational: wrong error type: %v", err)
		}
	}
	if _, err := SolveFloat(p); err == nil {
		t.Fatal("float: expected infeasible")
	}
	if _, err := SolveInteger(p, IntOptions{}); err == nil {
		t.Fatal("integer: expected infeasible")
	}
}

func TestInequalities(t *testing.T) {
	// x0 >= 3, x0 <= 5, x0 + x1 = 7, minimize x0 → x0=3, x1=4.
	p := &Problem{NumVars: 2}
	p.AddRow(Row{Entries: []Entry{{0, 1}}, Rel: GE, RHS: 3})
	p.AddRow(Row{Entries: []Entry{{0, 1}}, Rel: LE, RHS: 5})
	p.AddRow(eq([]int{0, 1}, 7, "sum"))
	p.Objective = []Entry{{Var: 0, Coef: 1}}
	sol, err := SolveRational(p)
	if err != nil {
		t.Fatal(err)
	}
	x := RoundSolution(sol.X)
	if x[0] != 3 || x[1] != 4 {
		t.Fatalf("got x=%v, want [3 4]", x)
	}
	if sol.Objective.Cmp(big.NewRat(3, 1)) != 0 {
		t.Fatalf("objective %v, want 3", sol.Objective)
	}
}

func TestNegativeRHSNormalization(t *testing.T) {
	// -x0 <= -4  (i.e. x0 >= 4), x0 = x1, x0+x1 = 10 → x0=x1=5.
	p := &Problem{NumVars: 2}
	p.AddRow(Row{Entries: []Entry{{0, -1}}, Rel: LE, RHS: -4})
	p.AddRow(Row{Entries: []Entry{{0, 1}, {1, -1}}, Rel: EQ, RHS: 0})
	p.AddRow(eq([]int{0, 1}, 10, "sum"))
	sol, err := SolveInteger(p, IntOptions{Backend: Rational})
	if err != nil {
		t.Fatal(err)
	}
	if sol.X[0] != 5 || sol.X[1] != 5 {
		t.Fatalf("got %v, want [5 5]", sol.X)
	}
}

func TestRedundantRows(t *testing.T) {
	// Duplicate constraints must not break Phase I, which ends with an
	// artificial basic at zero in the redundant row.
	p := &Problem{NumVars: 3}
	p.AddRow(eq([]int{0, 1}, 5, "a"))
	p.AddRow(eq([]int{0, 1}, 5, "a-dup"))
	p.AddRow(eq([]int{0, 1, 2}, 9, "total"))
	sol, err := SolveInteger(p, IntOptions{Backend: Rational})
	if err != nil {
		t.Fatal(err)
	}
	if !sol.Exact {
		t.Fatal("expected exact solution")
	}
}

func TestZeroRHS(t *testing.T) {
	p := &Problem{NumVars: 2}
	p.AddRow(eq([]int{0}, 0, "zero"))
	p.AddRow(eq([]int{0, 1}, 3, "total"))
	sol, err := SolveInteger(p, IntOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if sol.X[0] != 0 || sol.X[1] != 3 {
		t.Fatalf("got %v, want [0 3]", sol.X)
	}
}

func TestEmptyProblem(t *testing.T) {
	p := &Problem{NumVars: 3}
	sol, err := SolveInteger(p, IntOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range sol.X {
		if v != 0 {
			t.Fatalf("expected all-zero solution, got %v", sol.X)
		}
	}
}

func TestValidateRejectsBadVar(t *testing.T) {
	p := &Problem{NumVars: 1}
	p.AddRow(eq([]int{2}, 1, "bad"))
	if _, err := SolveRational(p); err == nil {
		t.Fatal("expected validation error")
	}
}

// randomFeasible builds a random 0/1 system that is integrally feasible by
// construction: draw a hidden integer solution, then emit row sums measured
// against it. This mirrors exactly how Hydra's CCs arise (counts measured
// on real data).
func randomFeasible(rng *rand.Rand, nVars, nRows int) (*Problem, []int64) {
	hidden := make([]int64, nVars)
	for i := range hidden {
		hidden[i] = int64(rng.Intn(50))
	}
	p := &Problem{NumVars: nVars}
	for r := 0; r < nRows; r++ {
		var vars []int
		var rhs int64
		for v := 0; v < nVars; v++ {
			if rng.Intn(2) == 0 {
				vars = append(vars, v)
				rhs += hidden[v]
			}
		}
		if len(vars) == 0 {
			continue
		}
		p.AddRow(eq(vars, rhs, "rand"))
	}
	// Total-size row, always present in Hydra LPs.
	all := make([]int, nVars)
	var tot int64
	for i := range all {
		all[i] = i
		tot += hidden[i]
	}
	p.AddRow(eq(all, tot, "total"))
	return p, hidden
}

func TestQuickRandomFeasibleRational(t *testing.T) {
	cfg := &quick.Config{MaxCount: 40}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		p, _ := randomFeasible(rng, 3+rng.Intn(10), 1+rng.Intn(6))
		sol, err := SolveInteger(p, IntOptions{Backend: Rational})
		if err != nil {
			t.Logf("seed %d: %v", seed, err)
			return false
		}
		return sol.Exact
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestQuickRandomFeasibleFloat(t *testing.T) {
	cfg := &quick.Config{MaxCount: 40}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		p, _ := randomFeasible(rng, 3+rng.Intn(10), 1+rng.Intn(6))
		sol, err := SolveInteger(p, IntOptions{Backend: Float})
		if err != nil {
			t.Logf("seed %d: %v", seed, err)
			return false
		}
		return sol.Exact
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestQuickSolutionSatisfiesAllRows(t *testing.T) {
	// Property: whatever SolveInteger returns without error passes
	// CheckInt on the ORIGINAL problem (not the branched subproblems).
	cfg := &quick.Config{MaxCount: 30}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		p, _ := randomFeasible(rng, 4+rng.Intn(8), 2+rng.Intn(5))
		sol, err := SolveInteger(p, IntOptions{})
		if err != nil {
			return false
		}
		return p.CheckInt(sol.X) == ""
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestSolveSoftConsistent(t *testing.T) {
	res, err := SolveSoft(paperPerson(), Auto)
	if err != nil {
		t.Fatal(err)
	}
	if res.TotalAbs != 0 {
		t.Fatalf("consistent system should have zero violation, got %d (residuals %v)", res.TotalAbs, res.Residuals)
	}
}

func TestSolveSoftInconsistent(t *testing.T) {
	// x0 = 10 and x0 = 14 cannot both hold; best L1 outcome is total
	// violation 4 split across the two rows.
	p := &Problem{NumVars: 1}
	p.AddRow(eq([]int{0}, 10, "a"))
	p.AddRow(eq([]int{0}, 14, "b"))
	res, err := SolveSoft(p, Rational)
	if err != nil {
		t.Fatal(err)
	}
	if res.TotalAbs != 4 {
		t.Fatalf("TotalAbs = %d, want 4 (residuals %v, x %v)", res.TotalAbs, res.Residuals, res.X)
	}
}

func TestFractionalVertexNeedsBranching(t *testing.T) {
	// x0 + x1 = 1, x1 + x2 = 1, x0 + x2 = 1 has the fractional vertex
	// (1/2,1/2,1/2) but no integer solution: odd cycle.
	p := &Problem{NumVars: 3}
	p.AddRow(eq([]int{0, 1}, 1, "a"))
	p.AddRow(eq([]int{1, 2}, 1, "b"))
	p.AddRow(eq([]int{0, 2}, 1, "c"))
	_, err := SolveInteger(p, IntOptions{Backend: Rational})
	if err == nil {
		t.Fatal("expected failure: no integer solution exists")
	}
}

func TestOddCycleWithSlack(t *testing.T) {
	// Same odd cycle but with even sums is integrally solvable.
	p := &Problem{NumVars: 3}
	p.AddRow(eq([]int{0, 1}, 2, "a"))
	p.AddRow(eq([]int{1, 2}, 2, "b"))
	p.AddRow(eq([]int{0, 2}, 2, "c"))
	sol, err := SolveInteger(p, IntOptions{Backend: Rational})
	if err != nil {
		t.Fatal(err)
	}
	if sol.X[0] != 1 || sol.X[1] != 1 || sol.X[2] != 1 {
		t.Fatalf("got %v, want [1 1 1]", sol.X)
	}
}

func TestStats(t *testing.T) {
	p := paperPerson()
	st := p.Stats()
	if st.Vars != 4 || st.Rows != 3 || st.NonZeros != 8 {
		t.Fatalf("unexpected stats %+v", st)
	}
}

func BenchmarkSolveIntegerMedium(b *testing.B) {
	rng := rand.New(rand.NewSource(7))
	p, _ := randomFeasible(rng, 120, 14)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := SolveInteger(p, IntOptions{Backend: Float}); err != nil {
			b.Fatal(err)
		}
	}
}
