// Package lp is Hydra's linear-programming substrate, standing in for the
// Z3 solver used by the paper (§3.2). The paper uses Z3 purely as an integer
// feasibility oracle for systems of linear cardinality equations over
// non-negative variables; this package provides exactly that:
//
//   - a dense simplex solver over exact rational arithmetic, Phase I
//     feasibility + Phase II optimization, with Dantzig pricing and a
//     Bland's-rule anti-cycling fallback; a problem without an objective
//     (every Hydra LP but SolveSoft's) ends at Phase I's feasible basis,
//     with no artificials driven out; it runs on a fraction-free
//     tableau of machine words (int64 numerators over one denominator per
//     row) and restarts a solve on math/big.Rat if a value outgrows them;
//   - the same driver on float64, for instances too large to solve exactly;
//   - a branch-and-bound layer that produces non-negative *integer*
//     solutions (SolveInteger), the form every Hydra LP needs;
//   - a soft mode (SolveSoft) that minimizes the L1 violation when a user
//     supplies inconsistent constraints, reporting per-row residuals
//     instead of failing.
package lp

import (
	"fmt"
	"math/big"
)

// Rel is a row relation.
type Rel int8

const (
	EQ Rel = iota // Σ aᵢxᵢ = b
	LE            // Σ aᵢxᵢ ≤ b
	GE            // Σ aᵢxᵢ ≥ b
)

func (r Rel) String() string {
	switch r {
	case EQ:
		return "="
	case LE:
		return "<="
	case GE:
		return ">="
	}
	return "?"
}

// Entry is one sparse coefficient of a row.
type Entry struct {
	Var  int
	Coef int64
}

// Row is one linear constraint with integer coefficients and right-hand
// side. All Hydra-generated rows are 0/1-coefficient equalities; integer
// coefficients keep the exact backend's rationals small.
type Row struct {
	Entries []Entry
	Rel     Rel
	RHS     int64
	// Name annotates the row for diagnostics (e.g. the CC it encodes).
	Name string
}

// Problem is a feasibility/optimization problem over n non-negative
// variables. The zero objective asks only for feasibility.
type Problem struct {
	NumVars int
	Rows    []Row
	// Objective, if non-nil, is minimized (sparse integer coefficients).
	Objective []Entry
}

// AddRow appends a constraint and returns its index.
func (p *Problem) AddRow(r Row) int {
	p.Rows = append(p.Rows, r)
	return len(p.Rows) - 1
}

// AddEq appends Σ vars = rhs with unit coefficients.
func (p *Problem) AddEq(vars []int, rhs int64, name string) int {
	entries := make([]Entry, len(vars))
	for i, v := range vars {
		entries[i] = Entry{Var: v, Coef: 1}
	}
	return p.AddRow(Row{Entries: entries, Rel: EQ, RHS: rhs, Name: name})
}

// Validate checks variable indices and domain sanity.
func (p *Problem) Validate() error {
	if p.NumVars < 0 {
		return fmt.Errorf("lp: negative variable count %d", p.NumVars)
	}
	for i, r := range p.Rows {
		for _, e := range r.Entries {
			if e.Var < 0 || e.Var >= p.NumVars {
				return fmt.Errorf("lp: row %d (%s): variable %d out of range [0,%d)", i, r.Name, e.Var, p.NumVars)
			}
		}
	}
	for _, e := range p.Objective {
		if e.Var < 0 || e.Var >= p.NumVars {
			return fmt.Errorf("lp: objective variable %d out of range [0,%d)", e.Var, p.NumVars)
		}
	}
	return nil
}

// Stats summarizes problem size, used by the experiment harness (Fig. 12/17
// report variable counts; Fig. 13 reports solve times alongside them).
type Stats struct {
	Vars, Rows, NonZeros int
}

// Stats returns size statistics for the problem.
func (p *Problem) Stats() Stats {
	nz := 0
	for _, r := range p.Rows {
		nz += len(r.Entries)
	}
	return Stats{Vars: p.NumVars, Rows: len(p.Rows), NonZeros: nz}
}

// Solution is a rational solution vector plus solver diagnostics.
type Solution struct {
	X      []*big.Rat
	Pivots int
	// Objective is the attained objective value (zero for pure
	// feasibility problems).
	Objective *big.Rat
}

// Infeasible is returned when the constraint system has no solution over
// the non-negative reals (and hence none over the integers either).
type Infeasible struct {
	// Row optionally names a witness row that could not be satisfied.
	Row string
}

func (e *Infeasible) Error() string {
	if e.Row != "" {
		return "lp: infeasible (unsatisfiable row " + e.Row + ")"
	}
	return "lp: infeasible"
}

// CheckInt verifies that integer assignment x satisfies every row exactly
// and is non-negative; it returns the first violated row name, or "".
// Both the branch-and-bound layer and the test suite use it as the final
// arbiter of correctness.
func (p *Problem) CheckInt(x []int64) string {
	if len(x) != p.NumVars {
		return fmt.Sprintf("length %d != %d", len(x), p.NumVars)
	}
	for i, v := range x {
		if v < 0 {
			return fmt.Sprintf("x%d=%d negative", i, v)
		}
	}
	for _, r := range p.Rows {
		var sum int64
		for _, e := range r.Entries {
			sum += e.Coef * x[e.Var]
		}
		ok := false
		switch r.Rel {
		case EQ:
			ok = sum == r.RHS
		case LE:
			ok = sum <= r.RHS
		case GE:
			ok = sum >= r.RHS
		}
		if !ok {
			return fmt.Sprintf("row %q: %d %s %d violated", r.Name, sum, r.Rel, r.RHS)
		}
	}
	return ""
}
