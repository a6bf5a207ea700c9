package lp

import (
	"errors"
	"fmt"
	"math"
	"math/big"
)

// Backend selects the arithmetic used for LP relaxations.
type Backend int

const (
	// Auto picks Rational for small instances and Float for large ones,
	// escalating Float results to Rational whenever exact verification
	// fails.
	Auto Backend = iota
	// Rational forces the exact simplex (SolveRational).
	Rational
	// Float forces float64 simplex (still exactly verified on output).
	Float
)

// autoRatCells is the tableau-size threshold (rows × columns) below which
// Auto uses the exact rational backend directly. On a Hydra-shaped 0/1
// system (BenchmarkAblation_RationalVsFloat) an exact solve on word-sized
// rationals costs about 2.2× a float64 one, and about 17× that if it has
// to fall back to math/big; where vertices are fractional and every entry
// carries a denominator (BenchmarkSolveExact) the word path is about 20×
// faster than math/big (medians of five runs on a 2-vCPU x86-64 VM). The
// threshold predates the word path and is kept because moving it changes
// which backend solves which LP, and with that the vertices and every
// summary digest; larger systems run in float64 and every integer answer
// is re-verified exactly before acceptance.
const autoRatCells = 20_000

// IntOptions configures SolveInteger.
type IntOptions struct {
	Backend  Backend
	MaxNodes int // branch-and-bound node budget; 0 means DefaultMaxNodes
}

// DefaultMaxNodes bounds the branch-and-bound search. Hydra's constraint
// systems are integrally feasible by construction (the CC counts were
// measured on real data), so the search almost always succeeds within a
// handful of nodes; the budget exists to fail fast on adversarial inputs.
const DefaultMaxNodes = 4000

// ErrNodeLimit reports that branch and bound exhausted its node budget.
// The accompanying best-effort rounded solution may violate some rows;
// callers surface the violations as relative CC error instead of failing.
var ErrNodeLimit = errors.New("lp: branch-and-bound node limit exceeded")

// IntSolution is an integer solution plus diagnostics.
type IntSolution struct {
	X      []int64
	Nodes  int
	Pivots int
	// Exact reports whether X satisfies every row exactly (verified with
	// integer arithmetic).
	Exact bool
}

func relaxBackend(p *Problem, b Backend) Backend {
	if b != Auto {
		return b
	}
	st := p.Stats()
	if (st.Rows+1)*(st.Vars+2*st.Rows+1) <= autoRatCells {
		return Rational
	}
	return Float
}

func solveRelaxation(p *Problem, b Backend, ws *workspace) (*Solution, error) {
	if b == Rational {
		return solveRational(p, ws)
	}
	return solveFloat(p, ws)
}

// workspace is the tableau memory the relaxations of one SolveInteger call
// share: each node's tableau is built in the cells the previous node's
// left behind, so branch and bound allocates about one tableau per call
// rather than one per node. It lives no longer than the call, so nothing
// holds the memory afterwards.
type workspace struct {
	floats []float64
	words  []wordRat
}

// reuse returns n cells backed by *buf, growing it when it is too short.
// The cells' contents are unspecified.
func reuse[T any](buf *[]T, n int) []T {
	if cap(*buf) < n {
		*buf = make([]T, n)
	}
	*buf = (*buf)[:n]
	return *buf
}

// fractionalVar returns the index of a fractional component and its value,
// or -1 when the solution is integral (within tolerance for float-derived
// rationals, exactly for rational ones).
func fractionalVar(x []*big.Rat) (int, *big.Rat) {
	bestIdx, bestDist := -1, 0.0
	for i, v := range x {
		if v.IsInt() {
			continue
		}
		f, _ := v.Float64()
		dist := math.Abs(f - math.Round(f))
		if dist <= fRoundTol {
			continue // float noise; rounding will fix it
		}
		// Most-fractional branching: prefer the variable farthest from
		// an integer.
		if dist > bestDist {
			bestDist, bestIdx = dist, i
		}
	}
	if bestIdx == -1 {
		return -1, nil
	}
	return bestIdx, x[bestIdx]
}

// firstFraction returns the first component of an exact vertex that is not
// an integer, or -1. fractionalVar misses fractions below float64's
// resolution (any fraction of a value past 2⁵³); an exact vertex that
// fails to round into a solution branches on one of those instead.
func firstFraction(x []*big.Rat) (int, *big.Rat) {
	for i, v := range x {
		if !v.IsInt() {
			return i, v
		}
	}
	return -1, nil
}

// RoundSolution rounds a rational vector to the nearest non-negative
// integers.
func RoundSolution(x []*big.Rat) []int64 {
	out := make([]int64, len(x))
	half := big.NewRat(1, 2)
	tmp := new(big.Rat)
	for i, v := range x {
		tmp.Add(v, half)
		q := new(big.Int).Quo(tmp.Num(), tmp.Denom())
		n := q.Int64()
		if n < 0 {
			n = 0
		}
		out[i] = n
	}
	return out
}

// SolveInteger finds a non-negative integer solution of p via depth-first
// branch and bound over LP relaxations, exploring the floor branch first
// (Hydra's systems are feasible, so diving almost always succeeds
// immediately). The returned solution is exactly verified; if the node
// budget runs out, the best-effort rounded relaxation is returned together
// with ErrNodeLimit and Exact=false.
func SolveInteger(p *Problem, opts IntOptions) (*IntSolution, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	maxNodes := opts.MaxNodes
	if maxNodes == 0 {
		maxNodes = DefaultMaxNodes
	}
	// Presolve: merge identical columns. Hydra's region LPs contain
	// thousands of twin variables (regions distinguished only by rows this
	// problem does not contain); deduplication both shrinks the tableau
	// and removes the degeneracy that stalls simplex pricing.
	orig := p
	p, expand := DedupColumns(p)
	backend := relaxBackend(p, opts.Backend)

	// Each stack entry is the set of extra branching rows of one node.
	stack := [][]Row{nil}
	nodes, pivots := 0, 0
	var lastRounded []int64
	ws := new(workspace)

	for len(stack) > 0 && nodes < maxNodes {
		extra := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		nodes++

		sub := &Problem{NumVars: p.NumVars, Objective: p.Objective}
		sub.Rows = make([]Row, 0, len(p.Rows)+len(extra))
		sub.Rows = append(sub.Rows, p.Rows...)
		sub.Rows = append(sub.Rows, extra...)

		sol, err := solveRelaxation(sub, backend, ws)
		if err != nil {
			var inf *Infeasible
			if errors.As(err, &inf) {
				continue // prune
			}
			return nil, err
		}
		pivots += sol.Pivots

		idx, val := fractionalVar(sol.X)
		if idx == -1 {
			x := RoundSolution(sol.X)
			if viol := p.CheckInt(x); viol == "" {
				full := expand(x)
				return &IntSolution{X: full, Nodes: nodes, Pivots: pivots, Exact: orig.CheckInt(full) == ""}, nil
			} else if backend == Float && relaxBackend(sub, Auto) == Rational {
				// Float noise produced a near-integral vertex that does
				// not verify: escalate this subproblem to exact
				// arithmetic, but only when the tableau is small enough
				// for exact pivoting to stay cheap.
				rsol, rerr := solveRational(sub, ws)
				if rerr == nil {
					pivots += rsol.Pivots
					ridx, rval := fractionalVar(rsol.X)
					if ridx == -1 {
						rx := RoundSolution(rsol.X)
						if p.CheckInt(rx) == "" {
							full := expand(rx)
							return &IntSolution{X: full, Nodes: nodes, Pivots: pivots, Exact: orig.CheckInt(full) == ""}, nil
						}
						ridx, rval = firstFraction(rsol.X)
					}
					if ridx != -1 {
						stack = pushBranches(stack, extra, ridx, rval)
						continue
					}
				}
				lastRounded = x
				continue
			} else if idx, val = firstFraction(sol.X); backend != Rational || idx == -1 {
				// An exact vertex that does not round has a fraction
				// too small for fractionalVar: branch on it below. A
				// float vertex's fractions are noise.
				lastRounded = x
				continue
			}
		}
		lastRounded = RoundSolution(sol.X)
		stack = pushBranches(stack, extra, idx, val)
	}

	if len(stack) == 0 && lastRounded == nil {
		return nil, &Infeasible{}
	}
	if lastRounded == nil {
		lastRounded = make([]int64, p.NumVars)
	}
	full := expand(lastRounded)
	return &IntSolution{X: full, Nodes: nodes, Pivots: pivots, Exact: orig.CheckInt(full) == ""},
		fmt.Errorf("%w after %d nodes", ErrNodeLimit, nodes)
}

// pushBranches pushes the ceil branch then the floor branch so the floor
// branch is explored first (LIFO).
func pushBranches(stack [][]Row, base []Row, idx int, val *big.Rat) [][]Row {
	floor := new(big.Int).Quo(val.Num(), val.Denom()).Int64()
	if val.Sign() < 0 && !val.IsInt() {
		floor-- // Quo truncates toward zero; emulate mathematical floor
	}
	mk := func(rel Rel, rhs int64) []Row {
		out := make([]Row, 0, len(base)+1)
		out = append(out, base...)
		out = append(out, Row{
			Entries: []Entry{{Var: idx, Coef: 1}},
			Rel:     rel,
			RHS:     rhs,
			Name:    fmt.Sprintf("branch:x%d%s%d", idx, rel, rhs),
		})
		return out
	}
	return append(stack, mk(GE, floor+1), mk(LE, floor))
}

// SoftResult is the outcome of SolveSoft: an integer assignment that
// minimizes (approximately, after rounding) the L1 violation of the
// equality rows, plus the per-row residuals it attains.
type SoftResult struct {
	X         []int64
	Residuals []int64 // per input row: achieved LHS minus RHS
	TotalAbs  int64   // Σ |residual|
}

// SolveSoft relaxes every equality row with a pair of deviation variables
// and minimizes the total deviation, yielding a best-effort solution for
// inconsistent constraint systems (e.g. a user-edited CC file). Inequality
// rows are kept hard.
func SolveSoft(p *Problem, backend Backend) (*SoftResult, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	orig := p
	p, expand := DedupColumns(p)
	aug := &Problem{NumVars: p.NumVars}
	next := p.NumVars
	var obj []Entry
	for _, r := range p.Rows {
		nr := Row{Rel: r.Rel, RHS: r.RHS, Name: r.Name}
		nr.Entries = append(nr.Entries, r.Entries...)
		if r.Rel == EQ {
			// LHS + u - v = RHS; u pushes LHS up, v pulls it down.
			nr.Entries = append(nr.Entries, Entry{Var: next, Coef: 1}, Entry{Var: next + 1, Coef: -1})
			obj = append(obj, Entry{Var: next, Coef: 1}, Entry{Var: next + 1, Coef: 1})
			next += 2
		}
		aug.Rows = append(aug.Rows, nr)
	}
	aug.NumVars = next
	aug.Objective = obj

	sol, err := solveRelaxation(aug, relaxBackend(aug, backend), new(workspace))
	if err != nil {
		return nil, err
	}
	rounded := RoundSolution(sol.X)
	x := expand(rounded[:p.NumVars])
	res := &SoftResult{X: x, Residuals: make([]int64, len(orig.Rows))}
	for i, r := range orig.Rows {
		var sum int64
		for _, e := range r.Entries {
			sum += e.Coef * x[e.Var]
		}
		d := sum - r.RHS
		if r.Rel == LE && d < 0 {
			d = 0
		}
		if r.Rel == GE && d > 0 {
			d = 0
		}
		res.Residuals[i] = d
		if d < 0 {
			res.TotalAbs -= d
		} else {
			res.TotalAbs += d
		}
	}
	return res, nil
}
