package lp

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
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

// intOutcome renders everything SolveInteger reports (an infeasible
// problem reports its counters too, with no X).
func intOutcome(sol *IntSolution, err error) string {
	if sol == nil {
		return fmt.Sprintf("err=%v", err)
	}
	return fmt.Sprintf("x=%v nodes=%d pivots=%d exact=%v err=%v", sol.X, sol.Nodes, sol.Pivots, sol.Exact, err)
}

// TestSolveIntegerFloatPinned pins what branch and bound over float64
// relaxations returns on FuzzSolveExact's seeds, as cut before the float
// pivot eliminated over the pivot row's non-zeros only and before nodes
// shared one tableau's memory: neither may move a vertex. The last seed's
// tree empties after 15 of 4 000 nodes, an exhausted search. Pivots count
// the relaxations found infeasible too (seeds 2 to 5 moved when they
// began to).
func TestSolveIntegerFloatPinned(t *testing.T) {
	want := []string{
		"x=[0] nodes=1 pivots=0 exact=true err=<nil>",
		"x=[10 0 20 50] nodes=1 pivots=4 exact=true err=<nil>",
		"x=[] nodes=1 pivots=1 exact=false err=lp: infeasible",
		"x=[] nodes=1 pivots=1 exact=false err=lp: infeasible",
		"x=[] nodes=1 pivots=3 exact=false err=lp: infeasible",
		"x=[4 0 3 0 5 0 2 0] nodes=15 pivots=122 exact=false err=lp: branch-and-bound search exhausted after 15 nodes",
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
	// Re-cut when an exhausted tree got its own sentinel and an infeasible
	// root kept its counters (rendered the old way, the outcomes hashed to
	// 5d190865…), and again when pivots began to count infeasible
	// relaxations: rendered without pivots, the outcomes hash to 843bebec…
	// on both sides of that change, so no vertex moved. Re-cut again when
	// objective-free relaxations stopped at Phase I instead of evicting the
	// artificials left basic at zero: only pivots moved, and without them
	// the outcomes still hash to 843bebec… (cef6427d… with the evictions).
	const want = "4aa0b487693bed71ce0a7f2f5ded33d8793d2569c1d9d46975cb97a7a6008c7f"
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

// TestIntSolutionCounters: the solver-path counters HYDRA_TRACE prints,
// and the error each outcome ends with. Below float64's resolution a
// float vertex rounds to integers that do not verify, so both nodes
// escalate to exact arithmetic; chained denominators overflow every
// node's word-sized solve, which restarts on math/big; twin columns merge
// before any relaxation. A tree that empties before the node budget is an
// exhausted search (2x = 1 branches to x ≤ 0 and x ≥ 1, both infeasible),
// not a node limit; the same tree cut at two nodes is one. An infeasible
// root keeps its counters, and the pivots of every relaxation count,
// infeasible ones included.
func TestIntSolutionCounters(t *testing.T) {
	below := &Problem{NumVars: 3}
	below.AddRow(Row{Entries: []Entry{{0, 2}, {1, 2}, {2, 1}}, Rel: EQ, RHS: 4e17 + 1, Name: "r"})
	half := &Problem{NumVars: 1}
	half.AddRow(Row{Entries: []Entry{{0, 2}}, Rel: EQ, RHS: 1, Name: "r"})
	negative := &Problem{NumVars: 2}
	negative.AddEq([]int{0, 1}, -1, "r")
	infeasible := func(err error) bool {
		var inf *Infeasible
		return errors.As(err, &inf)
	}
	is := func(target error) func(error) bool {
		return func(err error) bool { return errors.Is(err, target) }
	}
	for _, tc := range []struct {
		name     string
		p        *Problem
		b        Backend
		maxNodes int
		want     IntSolution
		wantErr  func(error) bool
	}{
		{"below float resolution", below, Float, 0, IntSolution{Nodes: 2, Pivots: 5, Exact: true, Cols: 2, Arith: Float, Escalations: 2}, is(nil)},
		{"below float resolution", below, Auto, 0, IntSolution{Nodes: 2, Pivots: 3, Exact: true, Cols: 2, Arith: Rational}, is(nil)},
		{"chained denominators", overflowProblems()["chained denominators"], Rational, 0, IntSolution{Nodes: 3, Pivots: 17, Cols: 6, Arith: Rational, Restarts: 3}, is(ErrSearchExhausted)},
		{"2x = 1", half, Auto, 0, IntSolution{Nodes: 3, Pivots: 3, Cols: 1, Arith: Rational}, is(ErrSearchExhausted)},
		{"2x = 1, two nodes", half, Auto, 2, IntSolution{Nodes: 2, Pivots: 2, Cols: 1, Arith: Rational}, is(ErrNodeLimit)},
		{"x + y = -1", negative, Auto, 0, IntSolution{Nodes: 1, Cols: 1, Arith: Rational}, infeasible},
	} {
		sol, err := SolveInteger(tc.p, IntOptions{Backend: tc.b, MaxNodes: tc.maxNodes})
		if !tc.wantErr(err) {
			t.Errorf("%s, %v: unexpected error %v", tc.name, tc.b, err)
		}
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
			num, den = num/g, den/g // lowest terms, as wordTableau.vertex gives them
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
