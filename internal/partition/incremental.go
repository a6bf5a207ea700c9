package partition

import (
	"github.com/dsl-repro/hydra/internal/pred"
)

// OptimalIncremental computes the same optimal partition as Optimal
// (Algorithms 1+2 of the paper) with a different evaluation order: instead
// of refining the whole universe dimension-by-dimension and coarsening by
// label at the end, it maintains label-merged regions throughout and
// splits each region by one DNF constraint at a time:
//
//	regions ← { (D, ∅) }
//	for each constraint Cⱼ: every region R splits into R∩Cⱼ (label+j)
//	                        and R∖Cⱼ (label unchanged)
//
// Both orders produce the quotient set of the R_C equivalence relation
// (Lemma 4.3) — the unique optimal partition — but the incremental order
// keeps at most 2·|labels| regions alive at any point, whereas Algorithm
// 2's intermediate refinement can approach grid size on densely
// overlapping constraint sets long before Algorithm 1's coarsening
// rescues it. Hydra's formulator therefore uses this form; Optimal remains
// as the literal-paper reference implementation, and the test suite checks
// the two agree.
//
// maxBlocks caps the total block count across regions (0 = unlimited).
func OptimalIncremental(space []pred.Set, cons []pred.DNF, maxBlocks int) ([]Region, error) {
	root := Block{Dims: append([]pred.Set(nil), space...)}
	if root.Empty() {
		return nil, nil
	}
	regions := []Region{{Blocks: []Block{root}, Label: newLabel(len(cons))}}
	totalBlocks := 1
	for j, c := range cons {
		next := make([]Region, 0, 2*len(regions)) // each region splits in at most two
		totalBlocks = 0
		for _, r := range regions {
			in, out := splitBlocks(r.Blocks, c.Terms)
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
		if maxBlocks > 0 && totalBlocks > maxBlocks {
			return nil, &ErrTooManyBlocks{Blocks: maxBlocks}
		}
		regions = next
	}
	sortByRep(regions)
	return regions, nil
}

// splitBlocks partitions the union of blocks into the part inside the DNF
// (union of the conjuncts) and the part outside, keeping both sides as
// disjoint block lists. Terms are applied sequentially: each term claims
// its intersection with the remaining outside part, so overlapping
// disjuncts never double-count.
func splitBlocks(blocks []Block, terms []pred.Conjunct) (in, out []Block) {
	rem := blocks
	for _, t := range terms {
		if len(rem) == 0 {
			break
		}
		var nextRem []Block
		for _, b := range rem {
			inter, ok, frags := subtractConjunct(b, t)
			if ok {
				in = append(in, inter)
			}
			nextRem = append(nextRem, frags...)
		}
		rem = nextRem
	}
	return in, rem
}

// coalesce reduces a disjoint block list by repeatedly merging blocks that
// agree on every dimension but one (their union is again a single block
// with the odd dimension's sets united). Subtraction fragments re-coalesce
// aggressively under this rule, keeping region representations near the
// information-theoretic minimum instead of growing with split history.
func coalesce(blocks []Block) []Block {
	if len(blocks) < 2 {
		return blocks
	}
	n := len(blocks[0].Dims)
	for changed := true; changed; {
		changed = false
		for d := 0; d < n && len(blocks) > 1; d++ {
			groups := make(map[string]int, len(blocks))
			out := blocks[:0:0]
			for _, b := range blocks {
				key := blockKeyExcept(b, d)
				if idx, ok := groups[key]; ok {
					out[idx].Dims[d] = out[idx].Dims[d].Union(b.Dims[d])
					changed = true
					continue
				}
				cp := Block{Dims: append([]pred.Set(nil), b.Dims...)}
				groups[key] = len(out)
				out = append(out, cp)
			}
			blocks = out
		}
	}
	return blocks
}

// blockKeyExcept serializes every dimension's interval set except dim d.
func blockKeyExcept(b Block, d int) string {
	buf := make([]byte, 0, 64)
	for i, s := range b.Dims {
		if i == d {
			continue
		}
		for _, iv := range s.Intervals() {
			buf = appendInt64(buf, iv.Lo)
			buf = appendInt64(buf, iv.Hi)
		}
		buf = append(buf, 0xFF)
	}
	return string(buf)
}

func appendInt64(buf []byte, v int64) []byte {
	u := uint64(v)
	return append(buf,
		byte(u), byte(u>>8), byte(u>>16), byte(u>>24),
		byte(u>>32), byte(u>>40), byte(u>>48), byte(u>>56))
}

// subtractConjunct splits block b against conjunct t: it returns b∩t (ok
// reports whether it is non-empty) and the fragments of b∖t. The
// subtraction peels one constrained dimension at a time, so it emits at
// most one fragment per dimension t constrains — linear, not exponential,
// fragmentation.
func subtractConjunct(b Block, t pred.Conjunct) (inter Block, ok bool, frags []Block) {
	cur := b
	for dim := range b.Dims {
		restr, constrained := t.Restriction(dim)
		if !constrained {
			continue
		}
		inside := cur.Dims[dim].Intersect(restr)
		if inside.Empty() {
			// Nothing of cur lies inside t; all of cur stays outside.
			return Block{}, false, append(frags, cur)
		}
		outside := cur.Dims[dim].Subtract(restr)
		if !outside.Empty() {
			frag := Block{Dims: append([]pred.Set(nil), cur.Dims...)}
			frag.Dims[dim] = outside
			frags = append(frags, frag)
		}
		// Continue narrowing along the inside part.
		narrowed := Block{Dims: append([]pred.Set(nil), cur.Dims...)}
		narrowed.Dims[dim] = inside
		cur = narrowed
	}
	return cur, true, frags
}
