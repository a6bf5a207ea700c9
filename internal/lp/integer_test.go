package lp

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
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
