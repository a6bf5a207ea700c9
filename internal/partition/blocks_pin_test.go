package partition

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"github.com/dsl-repro/hydra/internal/pred"
)

// frozenOptimalIncremental is OptimalIncremental as it was before block
// splits classified a dimension without allocating: every split
// intersects and subtracts (through the domain complement) and copies
// Dims, and regions sort by their built representative points. It also
// returns the largest block total any constraint left, the budget at
// which OptimalIncremental starts to refuse.
func frozenOptimalIncremental(space []pred.Set, cons []pred.DNF, maxBlocks int) ([]Region, int, error) {
	root := Block{Dims: append([]pred.Set(nil), space...)}
	if root.Empty() {
		return nil, 0, nil
	}
	regions := []Region{{Blocks: []Block{root}, Label: newLabel(len(cons))}}
	peak := 1
	for j, c := range cons {
		next := make([]Region, 0, 2*len(regions))
		totalBlocks := 0
		for _, r := range regions {
			in, out := frozenSplitBlocks(r.Blocks, c.Terms)
			if len(in) > 32 {
				in = coalesce(in)
			}
			if len(out) > 32 {
				out = coalesce(out)
			}
			if len(in) > 0 {
				lbl := append(Label(nil), r.Label...)
				lbl.set(j)
				next = append(next, Region{Blocks: in, Label: lbl})
				totalBlocks += len(in)
			}
			if len(out) > 0 {
				next = append(next, Region{Blocks: out, Label: r.Label})
				totalBlocks += len(out)
			}
		}
		peak = max(peak, totalBlocks)
		if maxBlocks > 0 && totalBlocks > maxBlocks {
			return nil, peak, &ErrTooManyBlocks{Blocks: maxBlocks}
		}
		regions = next
	}
	type keyed struct {
		rep []int64
		r   Region
	}
	ks := make([]keyed, len(regions))
	for i, r := range regions {
		best := r.Blocks[0].Rep()
		for _, b := range r.Blocks[1:] {
			if rep := b.Rep(); slices.Compare(rep, best) < 0 {
				best = rep
			}
		}
		ks[i] = keyed{best, r}
	}
	slices.SortFunc(ks, func(a, b keyed) int { return slices.Compare(a.rep, b.rep) })
	for i, k := range ks {
		regions[i] = k.r
	}
	return regions, peak, nil
}

func frozenSplitBlocks(blocks []Block, terms []pred.Conjunct) (in, out []Block) {
	rem := blocks
	for _, t := range terms {
		if len(rem) == 0 {
			break
		}
		var nextRem []Block
		for _, b := range rem {
			inter, ok, frags := frozenSubtractConjunct(b, t)
			if ok {
				in = append(in, inter)
			}
			nextRem = append(nextRem, frags...)
		}
		rem = nextRem
	}
	return in, rem
}

func frozenSubtractConjunct(b Block, t pred.Conjunct) (inter Block, ok bool, frags []Block) {
	cur := b
	for dim := range b.Dims {
		restr, constrained := t.Restriction(dim)
		if !constrained {
			continue
		}
		inside := cur.Dims[dim].Intersect(restr)
		if inside.Empty() {
			return Block{}, false, append(frags, cur)
		}
		outside := cur.Dims[dim].Intersect(restr.Complement())
		if !outside.Empty() {
			frag := Block{Dims: append([]pred.Set(nil), cur.Dims...)}
			frag.Dims[dim] = outside
			frags = append(frags, frag)
		}
		narrowed := Block{Dims: append([]pred.Set(nil), cur.Dims...)}
		narrowed.Dims[dim] = inside
		cur = narrowed
	}
	return cur, true, frags
}

// sameRegions reports the first difference between two region lists:
// labels, block lists and every dimension's intervals must be identical.
func sameRegions(got, want []Region) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d regions, want %d", len(got), len(want))
	}
	for i := range got {
		g, w := got[i], want[i]
		if !slices.Equal(g.Label, w.Label) {
			return fmt.Errorf("region %d: label %v, want %v", i, g.Label, w.Label)
		}
		if len(g.Blocks) != len(w.Blocks) {
			return fmt.Errorf("region %d: %d blocks, want %d", i, len(g.Blocks), len(w.Blocks))
		}
		for k := range g.Blocks {
			for d := range g.Blocks[k].Dims {
				if !slices.Equal(g.Blocks[k].Dims[d].Intervals(), w.Blocks[k].Dims[d].Intervals()) {
					return fmt.Errorf("region %d block %d dim %d: %v, want %v", i, k, d, g.Blocks[k].Dims[d], w.Blocks[k].Dims[d])
				}
			}
		}
	}
	return nil
}

// randSet is a union of up to three random intervals inside [0, 120].
func randSet(rng *rand.Rand) pred.Set {
	ivs := make([]pred.Interval, 1+rng.Intn(3))
	for i := range ivs {
		lo := int64(rng.Intn(110))
		ivs[i] = pred.Interval{Lo: lo, Hi: lo + int64(rng.Intn(25))}
	}
	return pred.NewSet(ivs...)
}

// randTermsDNF is a DNF of 1 to 3 terms, each constraining a random
// subset of the dimensions by a possibly non-convex set.
func randTermsDNF(rng *rand.Rand, nDims int) pred.DNF {
	var terms []pred.Conjunct
	for range 1 + rng.Intn(3) {
		c := pred.NewConjunct()
		for d := range nDims {
			if rng.Intn(3) != 0 {
				c = c.With(d, randSet(rng))
			}
		}
		if len(c.Cols) == 0 {
			c = c.With(rng.Intn(nDims), randSet(rng))
		}
		terms = append(terms, c)
	}
	return pred.DNF{Terms: terms}
}

// TestOptimalIncrementalMatchesFrozen pins OptimalIncremental's regions,
// the block lists its run leaves in them (optimalIncrementalBlocks) and
// its budget decisions to the frozen copy above on seeded
// random inputs: DNFs of one to three terms over non-convex sets, with
// MarkerDNFs families over the atoms they induce (as the formulator
// injects them), at no budget, at the largest block total the input
// reaches, and one block below it.
func TestOptimalIncrementalMatchesFrozen(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	refused := 0
	for i := 0; i < 300; i++ {
		nDims := 1 + rng.Intn(3)
		space := make([]pred.Set, nDims)
		for d := range space {
			space[d] = pred.Range(0, 120)
			if rng.Intn(4) == 0 {
				space[d] = randSet(rng)
			}
		}
		var cons []pred.DNF
		for range 1 + rng.Intn(5) {
			cons = append(cons, randTermsDNF(rng, nDims))
		}
		if i%2 == 0 {
			var conjuncts []pred.Conjunct
			for _, c := range cons {
				conjuncts = append(conjuncts, c.Terms...)
			}
			d := rng.Intn(nDims)
			cons = append(cons, MarkerDNFs(d, Atoms(space[d], conjuncts, d))...)
		}
		want, peak, err := frozenOptimalIncremental(space, cons, 0)
		if err != nil {
			t.Fatal(err)
		}
		got, err := optimalIncrementalBlocks(space, cons, 0)
		if err != nil {
			t.Fatalf("input %d: %v", i, err)
		}
		if err := sameRegions(got, want); err != nil {
			t.Fatalf("input %d: %v", i, err)
		}
		// OptimalIncremental returns the same labels and corners, and no
		// blocks.
		plain, err := OptimalIncremental(space, cons, 0)
		if err != nil {
			t.Fatalf("input %d: %v", i, err)
		}
		if len(plain) != len(got) {
			t.Fatalf("input %d: %d regions, %d with blocks", i, len(plain), len(got))
		}
		for k, r := range plain {
			if !slices.Equal(r.Label, got[k].Label) || !slices.Equal(r.Rep(), got[k].Rep()) || r.Blocks != nil {
				t.Fatalf("input %d region %d: label %v corner %v blocks %d, want %v %v 0", i, k, r.Label, r.Rep(), len(r.Blocks), got[k].Label, got[k].Rep())
			}
		}
		for _, budget := range []int{peak, peak - 1} {
			if budget <= 0 {
				continue
			}
			_, _, wantErr := frozenOptimalIncremental(space, cons, budget)
			got, gotErr := optimalIncrementalBlocks(space, cons, budget)
			var tooMany *ErrTooManyBlocks
			if (gotErr == nil) != (wantErr == nil) || (gotErr != nil && !errors.As(gotErr, &tooMany)) {
				t.Fatalf("input %d, budget %d: error %v, frozen %v", i, budget, gotErr, wantErr)
			}
			if gotErr != nil {
				refused++
				continue
			}
			if err := sameRegions(got, want); err != nil {
				t.Fatalf("input %d, budget %d: %v", i, budget, err)
			}
		}
	}
	if refused < 100 {
		t.Fatalf("only %d budgets at the edge refused", refused)
	}
}
