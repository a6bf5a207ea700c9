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
	// Workspace, if set, holds the tableau memory across calls (see
	// Workspace); nil gives the call a fresh one.
	Workspace *Workspace
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

// ErrSearchExhausted reports that branch and bound explored its whole
// tree within the node budget without an exactly verified solution: every
// branch was pruned or ended in an integral vertex whose rounding violates
// a row. The accompanying solution is the last rounded vertex, as with
// ErrNodeLimit.
var ErrSearchExhausted = errors.New("lp: branch-and-bound search exhausted")

// IntSolution is an integer solution plus diagnostics.
type IntSolution struct {
	X      []int64
	Nodes  int
	Pivots int
	// Exact reports whether X satisfies every row exactly (verified with
	// integer arithmetic).
	Exact bool
	// Cols is the number of columns the relaxations had once
	// DedupColumns merged twin variables.
	Cols int
	// Arith is the arithmetic the relaxations ran in: Rational or Float.
	Arith Backend
	// Restarts counts exact relaxations whose word-sized arithmetic
	// overflowed and that were solved again on math/big.
	Restarts int
	// Escalations counts float relaxations whose near-integral vertex did
	// not verify and were solved again in exact arithmetic.
	Escalations int
}

func (b Backend) String() string {
	switch b {
	case Auto:
		return "auto"
	case Rational:
		return "rational"
	case Float:
		return "float"
	}
	return fmt.Sprintf("Backend(%d)", int(b))
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

// relaxation is one LP relaxation's outcome: its vertex in the arithmetic
// that solved it, the pivots that took, and whether a word-sized exact
// solve overflowed and was redone on math/big.
type relaxation struct {
	x       vertex
	pivots  int
	restart bool
}

func relax(p *Problem, b Backend, ws *Workspace) (relaxation, error) {
	if b == Rational {
		return relaxRational(p, ws)
	}
	return relaxFloat(p, ws)
}

// Workspace is the memory the simplex relaxations of a sequence of
// SolveInteger calls share: each relaxation builds its tableau in the
// cells the previous one left behind, so the sequence allocates about one
// tableau, the largest, rather than one per call and node. The memory
// stays held for as long as the caller holds the Workspace. The zero value
// is ready to use; a Workspace must not be used by two calls at once.
type Workspace struct {
	floats    []float64
	floatRows [][]float64
	words     []wordRat
	basis     []int
	rels      []Rel
	nz        []int
	cols      []int
	// mark[j] == gen when structColumns has listed column j for the
	// current row.
	mark []uint32
	gen  uint32
	// The vertex of the latest float and word-sized relaxation.
	xf []float64
	xw []wordRat
	// Rows of the current branch-and-bound node.
	rows []Row
}

// reuse returns n cells backed by *buf, growing it when it is too short.
// The cells' contents are unspecified. It grows by at least a quarter, so a
// dive whose tableau gains a row per node regrows it a few times, not once
// per node.
func reuse[T any](buf *[]T, n int) []T {
	if c := cap(*buf); c < n {
		*buf = make([]T, n, max(n, c+c/4))
	}
	*buf = (*buf)[:n]
	return *buf
}

// vertex is a relaxation's solution in the arithmetic that produced it.
// Branch and bound decides on these values directly; each method agrees
// with what the same decision computes on the value as a *big.Rat.
type vertex interface {
	len() int
	isInt(i int) bool
	// round is RoundSolution's value of component i.
	round(i int) int64
	// float is a component that is not an integer as Rat.Float64 rounds
	// it, and floor is its ⌊xᵢ⌋.
	float(i int) float64
	floor(i int) int64
}

// floatVertex is a float64 relaxation's vertex; every float64 is a
// rational, so each value is exact.
type floatVertex []float64

func (x floatVertex) len() int            { return len(x) }
func (x floatVertex) isInt(i int) bool    { return x[i] == math.Trunc(x[i]) }
func (x floatVertex) float(i int) float64 { return x[i] }
func (x floatVertex) floor(i int) int64   { return int64(math.Floor(x[i])) } // a fraction is below 2⁵²
func (x floatVertex) round(i int) int64 {
	v := x[i]
	switch {
	case v <= -1<<62 || v >= 1<<62:
		// Rat rounding past int64's range: keep big.Int.Int64's result.
		return roundRat(new(big.Rat).SetFloat64(v))
	case v < 0:
		return 0 // ⌊v+½⌋ truncated toward zero is at most 0
	}
	f := math.Floor(v)
	n := int64(f)
	if v-f >= 0.5 { // v−⌊v⌋ is exact (Sterbenz)
		n++
	}
	return n
}

// wordVertex is a word-sized exact relaxation's vertex.
type wordVertex []wordRat

func (x wordVertex) len() int         { return len(x) }
func (x wordVertex) isInt(i int) bool { return x[i].den == 1 }

func (x wordVertex) float(i int) float64 {
	const exact = 1 << 53 // every integer of magnitude up to 2⁵³ is a float64
	if v := x[i]; mag(v.num) < exact && v.den <= exact {
		return float64(v.num) / float64(v.den) // one correctly rounded division
	}
	f, _ := big.NewRat(x[i].num, x[i].den).Float64()
	return f
}

func (x wordVertex) round(i int) int64 {
	v := x[i]
	if v.num < 0 {
		return 0
	}
	q, r := v.num/v.den, v.num%v.den
	if r >= v.den-r { // ⌊v+½⌋ = q+1 iff 2r ≥ den
		q++
	}
	return q
}

func (x wordVertex) floor(i int) int64 {
	v := x[i]
	q := v.num / v.den // truncates toward zero
	if v.num < 0 && v.num%v.den != 0 {
		q--
	}
	return q
}

// ratVertex is a math/big relaxation's vertex.
type ratVertex []*big.Rat

func (x ratVertex) len() int            { return len(x) }
func (x ratVertex) isInt(i int) bool    { return x[i].IsInt() }
func (x ratVertex) round(i int) int64   { return roundRat(x[i]) }
func (x ratVertex) float(i int) float64 { f, _ := x[i].Float64(); return f }

func (x ratVertex) floor(i int) int64 {
	v := x[i]
	floor := new(big.Int).Quo(v.Num(), v.Denom()).Int64()
	if v.Sign() < 0 && !v.IsInt() {
		floor-- // Quo truncates toward zero; emulate mathematical floor
	}
	return floor
}

// roundRat is v rounded to the nearest integer, halves up, and clamped
// at zero.
func roundRat(v *big.Rat) int64 {
	tmp := new(big.Rat).Add(v, big.NewRat(1, 2))
	n := new(big.Int).Quo(tmp.Num(), tmp.Denom()).Int64()
	return max(n, 0)
}

// fractionalVar returns the index of a fractional component, or -1 when
// the solution is integral (within tolerance for float-derived values,
// exactly for rational ones).
func fractionalVar(x vertex) int {
	bestIdx, bestDist := -1, 0.0
	for i := range x.len() {
		if x.isInt(i) {
			continue
		}
		f := x.float(i)
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
	return bestIdx
}

// firstFraction returns the first component of an exact vertex that is not
// an integer, or -1. fractionalVar misses fractions below float64's
// resolution (any fraction of a value past 2⁵³); an exact vertex that
// fails to round into a solution branches on one of those instead.
func firstFraction(x vertex) int {
	for i := range x.len() {
		if !x.isInt(i) {
			return i
		}
	}
	return -1
}

// roundVertex rounds every component of x as RoundSolution does.
func roundVertex(x vertex) []int64 {
	out := make([]int64, x.len())
	for i := range out {
		out[i] = x.round(i)
	}
	return out
}

// RoundSolution rounds a rational vector to the nearest non-negative
// integers.
func RoundSolution(x []*big.Rat) []int64 {
	return roundVertex(ratVertex(x))
}

// SolveInteger finds a non-negative integer solution of p via depth-first
// branch and bound over LP relaxations, exploring the floor branch first
// (Hydra's systems are feasible, so diving almost always succeeds
// immediately). The returned solution is exactly verified. If the node
// budget runs out, the best-effort rounded relaxation is returned together
// with ErrNodeLimit; if the tree empties first, with ErrSearchExhausted.
// An infeasible root returns *Infeasible with the solution's counters
// (and no X).
//
// Each relaxation's vertex is decided on in the arithmetic that solved it
// (float64, word-sized rationals, or math/big after an overflow), with
// the same outcome as on its *big.Rat value.
func SolveInteger(p *Problem, opts IntOptions) (*IntSolution, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	maxNodes := opts.MaxNodes
	if maxNodes == 0 {
		maxNodes = DefaultMaxNodes
	}
	ws := opts.Workspace
	if ws == nil {
		ws = new(Workspace)
	}
	// Presolve: merge identical columns. Hydra's region LPs contain
	// thousands of twin variables (regions distinguished only by rows this
	// problem does not contain); deduplication both shrinks the tableau
	// and removes the degeneracy that stalls simplex pricing.
	orig := p
	p, expand := DedupColumns(p)
	backend := relaxBackend(p, opts.Backend)
	res := &IntSolution{Cols: p.NumVars, Arith: backend}
	done := func(x []int64) *IntSolution {
		res.X = expand(x)
		res.Exact = orig.CheckInt(res.X) == ""
		return res
	}

	// Each stack entry is the set of extra branching rows of one node.
	stack := [][]Row{nil}
	var lastRounded []int64
	sub := &Problem{NumVars: p.NumVars, Objective: p.Objective}

	for len(stack) > 0 && res.Nodes < maxNodes {
		extra := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		res.Nodes++

		sub.Rows = append(append(ws.rows[:0], p.Rows...), extra...)
		ws.rows = sub.Rows

		sol, err := relax(sub, backend, ws)
		if sol.restart {
			res.Restarts++
		}
		if err != nil {
			var inf *Infeasible
			if errors.As(err, &inf) {
				continue // prune
			}
			return nil, err
		}
		res.Pivots += sol.pivots

		idx := fractionalVar(sol.x)
		if idx == -1 {
			x := roundVertex(sol.x)
			if viol := p.CheckInt(x); viol == "" {
				return done(x), nil
			} else if backend == Float && relaxBackend(sub, Auto) == Rational {
				// Float noise produced a near-integral vertex that does
				// not verify: escalate this subproblem to exact
				// arithmetic, but only when the tableau is small enough
				// for exact pivoting to stay cheap.
				res.Escalations++
				rsol, rerr := relaxRational(sub, ws)
				if rsol.restart {
					res.Restarts++
				}
				if rerr == nil {
					res.Pivots += rsol.pivots
					ridx := fractionalVar(rsol.x)
					if ridx == -1 {
						rx := roundVertex(rsol.x)
						if p.CheckInt(rx) == "" {
							return done(rx), nil
						}
						ridx = firstFraction(rsol.x)
					}
					if ridx != -1 {
						stack = pushBranches(stack, extra, ridx, rsol.x.floor(ridx))
						continue
					}
				}
				lastRounded = x
				continue
			} else if idx = firstFraction(sol.x); backend != Rational || idx == -1 {
				// An exact vertex that does not round has a fraction
				// too small for fractionalVar: branch on it below. A
				// float vertex's fractions are noise.
				lastRounded = x
				continue
			}
		}
		lastRounded = roundVertex(sol.x)
		stack = pushBranches(stack, extra, idx, sol.x.floor(idx))
	}

	if len(stack) > 0 {
		if lastRounded == nil {
			lastRounded = make([]int64, p.NumVars)
		}
		return done(lastRounded), fmt.Errorf("%w after %d nodes", ErrNodeLimit, res.Nodes)
	}
	if lastRounded == nil {
		return res, &Infeasible{}
	}
	return done(lastRounded), fmt.Errorf("%w after %d nodes", ErrSearchExhausted, res.Nodes)
}

// pushBranches pushes the ceil branch then the floor branch so the floor
// branch is explored first (LIFO).
func pushBranches(stack [][]Row, base []Row, idx int, floor int64) [][]Row {
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

	sol, err := relax(aug, relaxBackend(aug, backend), new(Workspace))
	if err != nil {
		return nil, err
	}
	rounded := roundVertex(sol.x)
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
