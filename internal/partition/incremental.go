package partition

import (
	"slices"

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
	var next []Region // the other of two region lists, used in turn
	var rels []pred.Relation
	totalBlocks := 1
	for j, c := range cons {
		terms := termRestrictions(c, len(space))
		next = next[:0]
		totalBlocks = 0
		for _, r := range regions {
			in, out := splitBlocks(r.Blocks, terms, &rels)
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
		regions, next = next, regions
	}
	sortByRep(regions)
	return regions, nil
}

// restriction is a conjunct's constraint on one dimension.
type restriction struct {
	dim int
	set pred.Set
}

// termRestrictions lists, for each term of c, its restrictions on the
// first n dimensions in dimension order.
func termRestrictions(c pred.DNF, n int) [][]restriction {
	out := make([][]restriction, len(c.Terms))
	for i, t := range c.Terms {
		for dim := range n {
			if s, ok := t.Restriction(dim); ok {
				out[i] = append(out[i], restriction{dim, s})
			}
		}
	}
	return out
}

// splitBlocks partitions the union of blocks into the part inside the DNF
// (union of the conjuncts) and the part outside, keeping both sides as
// disjoint block lists. Terms are applied sequentially: each term claims
// its intersection with the remaining outside part, so overlapping
// disjuncts never double-count. A block that lies wholly on one side is
// shared, not copied, and so is the whole list when every block of it
// does. rels is scratch memory.
func splitBlocks(blocks []Block, terms [][]restriction, rels *[]pred.Relation) (in, out []Block) {
	rem := blocks
	for _, t := range terms {
		if len(rem) == 0 {
			break
		}
		var count [3]int // blocks per relation
		placed := (*rels)[:0]
		for _, b := range rem {
			rel := place(b, t)
			placed = append(placed, rel)
			count[rel]++
		}
		*rels = placed
		switch {
		case count[pred.Disjoint] == len(rem):
			continue // rem stays outside whole
		case count[pred.Inside] == len(rem) && in == nil:
			return rem, nil
		}
		in = slices.Grow(in, count[pred.Inside]+count[pred.Split])
		nextRem := make([]Block, 0, count[pred.Disjoint]+count[pred.Split]*len(t))
		for i, b := range rem {
			switch placed[i] {
			case pred.Disjoint:
				nextRem = append(nextRem, b)
			case pred.Inside:
				in = append(in, b)
			default:
				inter, ok, frags := subtractConjunct(b, t, nextRem)
				if ok {
					in = append(in, inter)
				}
				nextRem = frags
			}
		}
		rem = nextRem
	}
	return in, rem
}

// place tells how subtractConjunct splits b against t: at the first
// dimension b does not lie wholly inside, Disjoint puts all of b outside
// and Split cuts it; with none, b is Inside.
func place(b Block, t []restriction) pred.Relation {
	for _, r := range t {
		if rel := b.Dims[r.dim].Classify(r.set); rel != pred.Inside {
			return rel
		}
	}
	return pred.Inside
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

// subtractConjunct splits a block b that place reports Split against
// conjunct t: it appends the fragments of b∖t to frags and returns b∩t
// (ok reports whether it is non-empty). The subtraction peels one
// constrained dimension at a time, so it emits at most one fragment per
// dimension t constrains — linear, not exponential, fragmentation. Dims
// are copied only where a dimension really splits.
func subtractConjunct(b Block, t []restriction, frags []Block) (inter Block, ok bool, _ []Block) {
	cur, owned := b, false // owned: cur.Dims is this call's own copy
	for _, r := range t {
		d := cur.Dims[r.dim]
		switch d.Classify(r.set) {
		case pred.Inside:
			continue
		case pred.Disjoint:
			// Nothing of cur lies inside t; all of cur stays outside.
			return Block{}, false, append(frags, cur)
		}
		frag := Block{Dims: slices.Clone(cur.Dims)}
		frag.Dims[r.dim] = d.Subtract(r.set)
		frags = append(frags, frag)
		// Continue narrowing along the inside part.
		if !owned {
			cur, owned = Block{Dims: slices.Clone(cur.Dims)}, true
		}
		cur.Dims[r.dim] = d.Intersect(r.set)
	}
	return cur, true, frags
}
