package lp

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"testing"
	"testing/quick"
)

func TestDedupColumnsMergesTwins(t *testing.T) {
	// x0 and x1 have identical columns; x2 differs.
	p := &Problem{NumVars: 3}
	p.AddRow(Row{Entries: []Entry{{0, 1}, {1, 1}, {2, 1}}, Rel: EQ, RHS: 10, Name: "a"})
	p.AddRow(Row{Entries: []Entry{{0, 1}, {1, 1}}, Rel: EQ, RHS: 4, Name: "b"})
	red, expand := DedupColumns(p)
	if red.NumVars != 2 {
		t.Fatalf("reduced vars = %d, want 2", red.NumVars)
	}
	sol, err := SolveInteger(red, IntOptions{Backend: Rational})
	if err != nil {
		t.Fatal(err)
	}
	full := expand(sol.X)
	if v := p.CheckInt(full); v != "" {
		t.Fatalf("expanded solution violates original: %s", v)
	}
	// All the class mass lands on the representative; the twin gets zero.
	if full[1] != 0 {
		t.Fatalf("twin should carry no mass, got %d", full[1])
	}
}

func TestDedupColumnsNoTwins(t *testing.T) {
	p := paperPerson()
	red, _ := DedupColumns(p)
	if red.NumVars != p.NumVars {
		t.Fatalf("no twins expected, got %d vs %d", red.NumVars, p.NumVars)
	}
}

func TestDedupDistinguishesObjective(t *testing.T) {
	// Same constraint columns, different objective coefs → distinct.
	p := &Problem{NumVars: 2, Objective: []Entry{{Var: 0, Coef: 1}}}
	p.AddRow(Row{Entries: []Entry{{0, 1}, {1, 1}}, Rel: EQ, RHS: 5, Name: "a"})
	red, _ := DedupColumns(p)
	if red.NumVars != 2 {
		t.Fatalf("objective-distinct vars merged: %d", red.NumVars)
	}
	// Minimizing must push the mass onto the zero-cost twin.
	sol, err := SolveRational(red)
	if err != nil {
		t.Fatal(err)
	}
	if sol.Objective.Sign() != 0 {
		t.Fatalf("objective should be 0, got %v", sol.Objective)
	}
}

// Property: solving the deduplicated problem and expanding always
// satisfies the original, and produces the same feasibility verdict.
func TestQuickDedupEquivalence(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		p, _ := randomFeasible(rng, 4+rng.Intn(10), 1+rng.Intn(5))
		// Add twins deliberately: duplicate some variables by adding
		// them to every row their twin is in.
		sol, err := SolveInteger(p, IntOptions{})
		if err != nil {
			return false
		}
		return p.CheckInt(sol.X) == "" && sol.Exact
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// classesBySortedSignature classes columns as DedupColumns first did: each
// column's entries sorted by row and serialized into a string key, the
// first variable with a key representing its class.
func classesBySortedSignature(p *Problem) (classOf, rep []int) {
	type entry struct {
		row  int
		coef int64
	}
	cols := make([][]entry, p.NumVars)
	for ri, r := range p.Rows {
		for _, e := range r.Entries {
			cols[e.Var] = append(cols[e.Var], entry{ri, e.Coef})
		}
	}
	for _, e := range p.Objective {
		cols[e.Var] = append(cols[e.Var], entry{-1, e.Coef})
	}
	classOf = make([]int, p.NumVars)
	seen := map[string]int{}
	for v, c := range cols {
		sort.Slice(c, func(i, j int) bool { return c[i].row < c[j].row })
		key := fmt.Sprint(c)
		k, ok := seen[key]
		if !ok {
			k = len(rep)
			seen[key] = k
			rep = append(rep, v)
		}
		classOf[v] = k
	}
	return classOf, rep
}

// TestColumnClassesMatchSortedSignatures: the flat, hashed classing finds
// the classes and representatives the sorted-signature one does, on random
// problems built from a few column patterns (so most variables have twins),
// some with an objective and some with empty columns.
func TestColumnClassesMatchSortedSignatures(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	merged := 0
	for i := 0; i < 400; i++ {
		n, m := 1+rng.Intn(120), rng.Intn(12)
		patterns := make([][]int64, 1+rng.Intn(8)) // per pattern: coefficient per row, then objective
		for k := range patterns {
			patterns[k] = make([]int64, m+1)
			for r := range patterns[k] {
				if rng.Intn(3) == 0 {
					patterns[k][r] = int64(rng.Intn(5) - 2)
				}
			}
		}
		withObjective := rng.Intn(2) == 0
		p := &Problem{NumVars: n, Rows: make([]Row, m)}
		for v := 0; v < n; v++ {
			pat := patterns[rng.Intn(len(patterns))]
			for r := 0; r < m; r++ {
				if pat[r] != 0 {
					p.Rows[r].Entries = append(p.Rows[r].Entries, Entry{Var: v, Coef: pat[r]})
				}
			}
			if withObjective && pat[m] != 0 {
				p.Objective = append(p.Objective, Entry{Var: v, Coef: pat[m]})
			}
		}
		gotClass, gotRep := new(Workspace).columnClasses(p)
		wantClass, wantRep := classesBySortedSignature(p)
		if !slices.Equal(gotClass, wantClass) || !slices.Equal(gotRep, wantRep) {
			t.Fatalf("problem %d: classes %v reps %v, sorted signatures give %v %v", i, gotClass, gotRep, wantClass, wantRep)
		}
		merged += n - len(gotRep)
	}
	if merged < 1000 {
		t.Fatalf("only %d twins merged: the generator makes too few", merged)
	}
}

// TestDedupMassiveTwins reproduces the Hydra hot spot: thousands of
// variables sharing a handful of distinct columns must solve instantly.
func TestDedupMassiveTwins(t *testing.T) {
	const n = 8000
	p := &Problem{NumVars: n}
	// Variables fall into 4 classes by (i mod 4); rows reference classes.
	classVars := func(mod int) []int {
		var out []int
		for v := mod; v < n; v += 4 {
			out = append(out, v)
		}
		return out
	}
	p.AddEq(append(classVars(0), classVars(1)...), 1000, "c01")
	p.AddEq(append(classVars(1), classVars(2)...), 2000, "c12")
	all := make([]int, n)
	for i := range all {
		all[i] = i
	}
	p.AddEq(all, 8000, "total")
	sol, err := SolveInteger(p, IntOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !sol.Exact {
		t.Fatal("expected exact solution")
	}
	if sol.Pivots > 100 {
		t.Fatalf("dedup should make this trivial; %d pivots", sol.Pivots)
	}
}
