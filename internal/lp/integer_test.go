package lp

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"math/big"
	"math/rand"
	"testing"
)

// solveExactSeeds are FuzzSolveExact's seed inputs (see problemFromBytes).
var solveExactSeeds = [][]byte{
	{},
	{3, 3, 0, 0, 0, 10, 1, 1, 0, 0, 0, 20, 0, 1, 1, 0, 0, 80, 1, 1, 1, 1},
	{2, 3, 0, 1, 1, 0, 2, 3, 1, 0, 1, 5, 1, 0, 0, 7, 1, 1},
	{1, 2, 0, 0, 0, 10, 1, 1, 0, 20, 1, 0}, // infeasible
	{4, 5, 61, 1, 3, 1, 4, 1, 5, 0, 9, 2, 6, 5, 3, 5, 1, 0x80, 7, 9, 3, 2, 2, 0x85, 3, 8, 4, 6, 0, 26, 4, 3, 3, 8, 1, 0x7f, 9, 5, 0, 2},
	{7, 6, 40, 0, 0, 100, 3, 5, 7, 11, 13, 2, 4, 6, 0, 99, 7, 3, 5, 2, 9, 1, 8, 4, 0, 50, 1, 2, 3, 4, 5, 6, 7, 8, 0, 60, 9, 7, 5, 3, 1, 2, 4, 6},
}

// intOutcome renders everything SolveInteger reports.
func intOutcome(sol *IntSolution, err error) string {
	if sol == nil {
		return fmt.Sprintf("err=%v", err)
	}
	return fmt.Sprintf("x=%v nodes=%d pivots=%d exact=%v err=%v", sol.X, sol.Nodes, sol.Pivots, sol.Exact, err)
}

// TestSolveIntegerFloatPinned pins what branch and bound over float64
// relaxations returns on FuzzSolveExact's seeds, as cut before the float
// pivot eliminated over the pivot row's non-zeros only and before nodes
// shared one tableau's memory: neither may move a vertex.
func TestSolveIntegerFloatPinned(t *testing.T) {
	want := []string{
		"x=[0] nodes=1 pivots=0 exact=true err=<nil>",
		"x=[10 0 20 50] nodes=1 pivots=4 exact=true err=<nil>",
		"err=lp: infeasible",
		"err=lp: infeasible",
		"err=lp: infeasible",
		"x=[4 0 3 0 5 0 2 0] nodes=15 pivots=53 exact=false err=lp: branch-and-bound node limit exceeded after 15 nodes",
	}
	for i, seed := range solveExactSeeds {
		got := intOutcome(SolveInteger(problemFromBytes(seed), IntOptions{Backend: Float}))
		if i >= len(want) || got != want[i] {
			t.Errorf("seed %d: %s", i, got)
		}
	}
}

// TestSolveIntegerRandomPinned pins the digest of what SolveInteger and
// SolveSoft return under every backend on seeded random problems: Hydra-
// shaped 0/1 systems, and small mixed ones with signed coefficients,
// inequalities and objectives, half of them contradictory.
func TestSolveIntegerRandomPinned(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	h := sha256.New()
	for i := 0; i < 100; i++ {
		p, _ := randomFeasible(rng, 4+rng.Intn(40), 2+rng.Intn(8))
		q := randomMixed(rng, i%2 == 0)
		for _, b := range []Backend{Auto, Rational, Float} {
			fmt.Fprintf(h, "%d/%d %s\n", i, b, intOutcome(SolveInteger(p, IntOptions{Backend: b})))
			fmt.Fprintf(h, "%d/%d mixed %s\n", i, b, intOutcome(SolveInteger(q, IntOptions{Backend: b})))
			soft, err := SolveSoft(q, b)
			fmt.Fprintf(h, "%d/%d soft %+v %v\n", i, b, soft, err)
		}
	}
	const want = "5d190865db2a1763968ef7b38cac142159b575d0c52562e1bdb147992b8867bf"
	if got := hex.EncodeToString(h.Sum(nil)); got != want {
		t.Errorf("outcome digest %s, want %s", got, want)
	}
}

// TestSolveIntegerBranchesBelowFloatResolution solves 2x0 + 2x1 + x2 =
// 4·10¹⁷ + 1, whose relaxation puts the merged twin column at 2·10¹⁷ + ½:
// a fraction float64 cannot see. The exact solve (directly, or as the
// float backend's escalation) must branch on it rather than drop the node.
func TestSolveIntegerBranchesBelowFloatResolution(t *testing.T) {
	const rhs = 4e17 + 1
	p := &Problem{NumVars: 3}
	p.AddRow(Row{Entries: []Entry{{0, 2}, {1, 2}, {2, 1}}, Rel: EQ, RHS: rhs, Name: "r"})
	for _, b := range []Backend{Auto, Rational, Float} {
		sol, err := SolveInteger(p, IntOptions{Backend: b})
		if err != nil {
			t.Fatalf("backend %d: %s", b, intOutcome(sol, err))
		}
		if !sol.Exact || 2*sol.X[0]+2*sol.X[1]+sol.X[2] != rhs {
			t.Fatalf("backend %d: %s", b, intOutcome(sol, err))
		}
	}
}

// TestSolveIntegerAllocsPerNode: once a Workspace holds tableau memory,
// branch and bound allocates a bounded number of objects per node (the
// node's branching rows and names, its rounded vertex, the tableau's row
// headers), whatever the number of variables. Deciding on the vertex
// through *big.Rat took at least one object per variable per node: more
// than 110 here.
func TestSolveIntegerAllocsPerNode(t *testing.T) {
	if testing.CoverMode() != "" {
		t.Skip("coverage counters allocate")
	}
	p, _ := randomFeasible(rand.New(rand.NewSource(9)), 120, 10)
	for _, b := range []Backend{Rational, Float} {
		ws := new(Workspace)
		sol, err := SolveInteger(p, IntOptions{Backend: b, Workspace: ws})
		if err != nil {
			t.Fatal(err)
		}
		if sol.Nodes < 40 || sol.Cols < 100 {
			t.Fatalf("%v: %d nodes over %d columns; the problem no longer dives", b, sol.Nodes, sol.Cols)
		}
		allocs := testing.AllocsPerRun(3, func() {
			if _, err := SolveInteger(p, IntOptions{Backend: b, Workspace: ws}); err != nil {
				t.Fatal(err)
			}
		})
		if perNode := allocs / float64(sol.Nodes); perNode > 16 {
			t.Errorf("%v: %.0f objects over %d nodes, %.1f per node; want at most 16", b, allocs, sol.Nodes, perNode)
		}
	}
}

// TestIntSolutionCounters: the solver-path counters HYDRA_TRACE prints.
// Below float64's resolution a float vertex rounds to integers that do
// not verify, so both nodes escalate to exact arithmetic; chained
// denominators overflow every node's word-sized solve, which restarts on
// math/big; twin columns merge before any relaxation.
func TestIntSolutionCounters(t *testing.T) {
	below := &Problem{NumVars: 3}
	below.AddRow(Row{Entries: []Entry{{0, 2}, {1, 2}, {2, 1}}, Rel: EQ, RHS: 4e17 + 1, Name: "r"})
	for _, tc := range []struct {
		name string
		p    *Problem
		b    Backend
		want IntSolution
	}{
		{"below float resolution", below, Float, IntSolution{Nodes: 2, Pivots: 5, Exact: true, Cols: 2, Arith: Float, Escalations: 2}},
		{"below float resolution", below, Auto, IntSolution{Nodes: 2, Pivots: 3, Exact: true, Cols: 2, Arith: Rational}},
		{"chained denominators", overflowProblems()["chained denominators"], Rational, IntSolution{Nodes: 3, Pivots: 6, Cols: 6, Arith: Rational, Restarts: 3}},
	} {
		sol, _ := SolveInteger(tc.p, IntOptions{Backend: tc.b})
		if sol == nil {
			t.Fatalf("%s, %v: no solution", tc.name, tc.b)
		}
		got := *sol
		got.X = nil
		if fmt.Sprintf("%+v", got) != fmt.Sprintf("%+v", tc.want) {
			t.Errorf("%s, %v: %+v, want %+v", tc.name, tc.b, got, tc.want)
		}
	}
}

// sameDecisions requires x's vertex decisions to equal ref's, where ref
// holds the same values as *big.Rat: integrality, the float64 that
// fractionalVar measures, RoundSolution's value and the branching floor.
func sameDecisions(t *testing.T, x vertex, ref ratVertex) {
	t.Helper()
	for i := range ref {
		what := fmt.Sprintf("%T %s", x, ref[i].RatString())
		if got, want := x.isInt(i), ref.isInt(i); got != want {
			t.Fatalf("%s: isInt %v, big.Rat %v", what, got, want)
		}
		if got, want := x.round(i), ref.round(i); got != want {
			t.Fatalf("%s: round %d, big.Rat %d", what, got, want)
		}
		if !ref.isInt(i) {
			if got, want := x.float(i), ref.float(i); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("%s: float %v, big.Rat %v", what, got, want)
			}
			if got, want := x.floor(i), ref.floor(i); got != want {
				t.Fatalf("%s: floor %d, big.Rat %d", what, got, want)
			}
		}
	}
	if got, want := fractionalVar(x), fractionalVar(ref); got != want {
		t.Fatalf("%T: fractionalVar %d, big.Rat %d", x, got, want)
	}
	if got, want := firstFraction(x), firstFraction(ref); got != want {
		t.Fatalf("%T: firstFraction %d, big.Rat %d", x, got, want)
	}
}

// TestVertexMatchesBigRat: branch and bound decides on float64 and
// word-sized vertices directly; every decision must be the one the
// *big.Rat value of the same vertex gives. Values cover halves, noise
// around integers, negatives, the edges of float64's integer range and
// of int64, and denominators past 2⁵³.
func TestVertexMatchesBigRat(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	floats := []float64{0, math.Copysign(0, -1), 0.5, 1.5, 2.5, -0.5, -1.5, -2.5, 1e-7, 1 - 1e-7, 3 + 1e-6, 3 + 2e-6,
		1 << 52, 1<<52 + 0.5, 1 << 53, 1<<53 + 2, 1 << 62, 1<<62 - 512, 1 << 63, 1 << 64, 1e300,
		-(1 << 52), -(1<<52 + 0.5), -(1 << 62), -(1 << 63), -(1 << 64), -1e300, math.SmallestNonzeroFloat64}
	for range 2000 {
		v := rng.NormFloat64() * math.Pow(2, float64(rng.Intn(70)))
		if rng.Intn(3) == 0 {
			v = math.Round(v) + float64(rng.Intn(5))/4
		}
		floats = append(floats, v)
	}
	ref := make(ratVertex, len(floats))
	for i, v := range floats {
		ref[i] = new(big.Rat).SetFloat64(v)
	}
	for i := range floats {
		sameDecisions(t, floatVertex(floats[i:i+1]), ref[i:i+1])
	}
	sameDecisions(t, floatVertex(floats), ref)

	words := []wordRat{{0, 1}, {1, 2}, {-1, 2}, {3, 2}, {-3, 2}, {5, 2}, {7, 3}, {-7, 3}, {1, math.MaxInt64},
		{math.MaxInt64, 1}, {math.MinInt64, 1}, {math.MaxInt64, 2}, {math.MinInt64 + 1, 2}, {math.MinInt64 + 1, math.MaxInt64 - 1},
		{1<<53 + 1, 2}, {1 << 53, 1<<53 + 1}, {-(1 << 53), 3}, {(1<<53 + 1) * 3, 1 << 54}, {math.MaxInt64 - 1, math.MaxInt64}}
	for range 2000 {
		den := int64(1)
		if rng.Intn(4) != 0 {
			den = 1 + rng.Int63n(int64(1)<<uint(1+rng.Intn(62)))
		}
		num := rng.Int63n(int64(1)<<uint(1+rng.Intn(62))) - rng.Int63n(int64(1)<<uint(1+rng.Intn(62)))
		if g := int64(gcd64(abs64(num), uint64(den))); g > 1 {
			num, den = num/g, den/g // lowest terms, as wordArith keeps them
		}
		words = append(words, wordRat{num, den})
	}
	ref = make(ratVertex, len(words))
	for i, w := range words {
		if gcd64(abs64(w.num), uint64(w.den)) != 1 {
			t.Fatalf("%v is not in lowest terms", w)
		}
		ref[i] = big.NewRat(w.num, w.den)
	}
	for i := range words {
		sameDecisions(t, wordVertex(words[i:i+1]), ref[i:i+1])
	}
	sameDecisions(t, wordVertex(words), ref)
}
