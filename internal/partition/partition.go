// Package partition implements Hydra's central contribution: the
// region-partitioning algorithm (§4 of the paper, Algorithms 1 and 2) that
// divides a sub-view's data universe into the minimum number of regions
// needed to express a set of DNF cardinality constraints — one LP variable
// per region — plus the grid-partitioning strategy of DataSynth used as the
// comparative baseline throughout the evaluation.
//
// A block is a product of per-dimension interval sets. Algorithm 2 only
// ever splits a block along the dimension currently being processed, so
// this representation is closed under refinement: splitting block b by the
// restriction Cⁱ yields b⁺ (dimension-i component intersected with Cⁱ) and
// b⁻ (component minus Cⁱ) — note b⁻ may be a non-convex union, which is
// precisely why region partitioning stays exponentially smaller than the
// grid (the complement stays one block instead of shattering into cells).
package partition

import (
	"fmt"
	"slices"
	"sort"

	"github.com/dsl-repro/hydra/internal/pred"
)

// Block is a product of per-dimension interval sets; dimension i of the
// block is Dims[i]. Every block produced by this package is non-empty.
type Block struct {
	Dims []pred.Set
}

// Rep returns the block's representative point: the smallest value in each
// dimension ("assign the entire cardinality to the left boundaries", §5.2).
func (b Block) Rep() []int64 {
	out := make([]int64, len(b.Dims))
	for i, s := range b.Dims {
		out[i] = s.Min()
	}
	return out
}

// Empty reports whether any dimension component is empty.
func (b Block) Empty() bool {
	for _, s := range b.Dims {
		if s.Empty() {
			return true
		}
	}
	return false
}

func (b Block) String() string {
	return fmt.Sprintf("%v", b.Dims)
}

// Label identifies which of the input constraints a region satisfies; it
// is a bitset over constraint indices.
type Label []uint64

func newLabel(n int) Label { return make(Label, (n+63)/64) }

func (l Label) set(i int)      { l[i/64] |= 1 << (uint(i) % 64) }
func (l Label) Has(i int) bool { return l[i/64]&(1<<(uint(i)%64)) != 0 }

func (l Label) key() string {
	buf := make([]byte, 0, len(l)*8)
	for _, w := range l {
		for s := 0; s < 64; s += 8 {
			buf = append(buf, byte(w>>uint(s)))
		}
	}
	return string(buf)
}

// Region is a maximal set of blocks whose points satisfy exactly the same
// constraints; one LP variable is created per region.
type Region struct {
	// Blocks are the region's blocks. Only the reference Optimal and
	// Grid.CellRegions set them; OptimalIncremental's regions carry their
	// label and corner alone, which is all the formulator reads.
	Blocks []Block
	Label  Label

	// corner is the region's representative point.
	corner []int64
}

// Rep returns the region's representative point, the lexicographically
// smallest corner of its blocks: the deterministic spot where the summary
// generator places the region's tuple mass. The caller must not modify
// it.
func (r Region) Rep() []int64 { return r.corner }

// ErrTooManyBlocks reports that refinement exceeded the block budget: the
// constraint set genuinely requires a partition too fine to enumerate
// (e.g. adversarial inputs whose optimal partition approaches grid size).
// Failing early protects callers from unbounded memory growth.
type ErrTooManyBlocks struct {
	Blocks int
}

func (e *ErrTooManyBlocks) Error() string {
	return fmt.Sprintf("partition: refinement exceeded %d blocks", e.Blocks)
}

// DefaultMaxBlocks bounds RefineCapped/OptimalCapped. Real workloads stay
// in the thousands (the paper's worst view is ~3700 regions); the budget
// is three orders of magnitude above that.
const DefaultMaxBlocks = 4_000_000

// Refine is Algorithm 2 (Valid-Partition): it refines the data universe
// into a partition valid with respect to every sub-constraint, processing
// one dimension at a time.
//
// space gives the per-dimension domains; conjuncts are the sub-constraints
// C' extracted from the DNF constraints.
func Refine(space []pred.Set, conjuncts []pred.Conjunct) []Block {
	blocks, err := RefineCapped(space, conjuncts, 0)
	if err != nil {
		// Unlimited refinement cannot fail.
		panic(err)
	}
	return blocks
}

// RefineCapped is Refine with a block budget; maxBlocks ≤ 0 means
// unlimited.
func RefineCapped(space []pred.Set, conjuncts []pred.Conjunct, maxBlocks int) ([]Block, error) {
	parts := []Block{{Dims: append([]pred.Set(nil), space...)}}
	if parts[0].Empty() {
		return nil, nil
	}
	n := len(space)
	for dim := 0; dim < n; dim++ {
		for _, c := range conjuncts {
			restr, ok := c.Restriction(dim)
			if !ok {
				continue // Cⁱ = true: splits nothing
			}
			next := parts[:0:0]
			for _, b := range parts {
				plus := b.Dims[dim].Intersect(restr)
				if plus.Empty() {
					next = append(next, b) // entirely outside Cⁱ
					continue
				}
				minus := b.Dims[dim].Subtract(restr)
				if minus.Empty() {
					next = append(next, b) // entirely inside Cⁱ
					continue
				}
				bp := Block{Dims: append([]pred.Set(nil), b.Dims...)}
				bp.Dims[dim] = plus
				bm := Block{Dims: append([]pred.Set(nil), b.Dims...)}
				bm.Dims[dim] = minus
				next = append(next, bp, bm)
			}
			if maxBlocks > 0 && len(next) > maxBlocks {
				return nil, &ErrTooManyBlocks{Blocks: maxBlocks}
			}
			parts = next
		}
	}
	return parts, nil
}

// Optimal is Algorithm 1 (Optimal Partition): it refines the universe with
// respect to the sub-constraints of the DNF constraints, labels each block
// with the set of constraints it satisfies, and coarsens blocks with equal
// labels into regions. The result is the unique optimal (minimum-region)
// valid partition of Lemma 4.4.
func Optimal(space []pred.Set, cons []pred.DNF) []Region {
	regions, err := OptimalCapped(space, cons, 0)
	if err != nil {
		panic(err) // unlimited refinement cannot fail
	}
	return regions
}

// OptimalCapped is Optimal with a refinement budget (0 = unlimited).
func OptimalCapped(space []pred.Set, cons []pred.DNF, maxBlocks int) ([]Region, error) {
	var conjuncts []pred.Conjunct
	for _, c := range cons {
		conjuncts = append(conjuncts, c.Terms...)
	}
	blocks, err := RefineCapped(space, conjuncts, maxBlocks)
	if err != nil {
		return nil, err
	}

	byLabel := make(map[string]*Region)
	var order []string
	for _, b := range blocks {
		rep := b.Rep()
		lbl := newLabel(len(cons))
		for j, c := range cons {
			if c.Eval(rep) {
				lbl.set(j)
			}
		}
		k := lbl.key()
		if r, ok := byLabel[k]; ok {
			r.Blocks = append(r.Blocks, b)
			if slices.Compare(rep, r.corner) < 0 {
				r.corner = rep
			}
		} else {
			byLabel[k] = &Region{Blocks: []Block{b}, Label: lbl, corner: rep}
			order = append(order, k)
		}
	}
	out := make([]Region, 0, len(order))
	for _, k := range order {
		out = append(out, *byLabel[k])
	}
	// The deterministic output order: ascending by representative point.
	// Regions are disjoint, so no two share one and the order is total.
	slices.SortFunc(out, func(a, b Region) int { return slices.Compare(a.corner, b.corner) })
	return out, nil
}

// Atoms computes the atomic intervals ("split points" union, §4.1
// consistency-constraints paragraph) that the boundaries of all conjunct
// restrictions induce on one dimension of the given domain. Every
// constraint boundary on the dimension becomes a cut; the returned
// intervals tile the domain exactly.
func Atoms(domain pred.Set, conjuncts []pred.Conjunct, dim int) []pred.Interval {
	var cuts []int64
	for _, c := range conjuncts {
		if restr, ok := c.Restriction(dim); ok {
			cuts = restr.Boundaries(cuts)
		}
	}
	sort.Slice(cuts, func(i, j int) bool { return cuts[i] < cuts[j] })
	lo, hi := domain.Min(), domain.Max()
	var out []pred.Interval
	cur := lo
	for _, c := range cuts {
		if c <= cur || c > hi {
			continue
		}
		out = append(out, pred.Interval{Lo: cur, Hi: c - 1})
		cur = c
	}
	out = append(out, pred.Interval{Lo: cur, Hi: hi})
	return out
}

// MarkerDNFs converts per-dimension atoms into unary marker constraints.
// Injected alongside the real CCs into Optimal, they guarantee every
// resulting region projects into exactly one atom on each marked dimension
// — the invariant the summary generator's align step (§5.1.2) and the
// cross-sub-view consistency rows (§4.1) both rely on.
func MarkerDNFs(dim int, atoms []pred.Interval) []pred.DNF {
	out := make([]pred.DNF, len(atoms))
	for i, a := range atoms {
		out[i] = pred.DNF{Terms: []pred.Conjunct{
			pred.NewConjunct().With(dim, pred.NewSet(a)),
		}}
	}
	return out
}
