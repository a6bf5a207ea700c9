package partition

import (
	"slices"

	"github.com/dsl-repro/hydra/internal/freelist"
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
// The run keeps its blocks in a few pointer-free slabs (see slab) that
// it takes from a pool and gives back. The regions it returns carry their
// label and corner, not their blocks; they are built once, at the end,
// from a few arrays of their own, and share no memory with the slabs or
// with another call's regions.
//
// maxBlocks caps the total block count across regions (0 = unlimited).
func OptimalIncremental(space []pred.Set, cons []pred.DNF, maxBlocks int) ([]Region, error) {
	r, err := run(space, cons, maxBlocks)
	if r == nil {
		return nil, err
	}
	defer slabs.Put(r)
	return r.regions(), nil
}

// run splits space by every constraint of cons in turn on a slab from
// the pool, and returns the slab, its regions in cur, for the caller to
// read and put back. It returns nil for an empty space, and when the
// regions pass maxBlocks blocks.
func run(space []pred.Set, cons []pred.DNF, maxBlocks int) (*slab, error) {
	for _, s := range space {
		if s.Empty() {
			return nil, nil
		}
	}
	r := slabs.Get()
	r.reset(space, len(cons))
	for j, c := range cons {
		r.setTerms(c)
		if total := r.step(j); maxBlocks > 0 && total > maxBlocks {
			slabs.Put(r)
			return nil, &ErrTooManyBlocks{Blocks: maxBlocks}
		}
	}
	return r, nil
}

// maxKeptSlab is the most memory, in bytes, a finished run's slab may
// hold and still be kept for the next run.
const maxKeptSlab = 16 << 20

// slabs holds the memory of finished runs, so that a run grows its
// arrays only past the largest an earlier run left. A slab holds no
// pointers into a run's input or output.
var slabs = freelist.New((*slab).bytes, maxKeptSlab)

// bytes is the memory a slab's largest arrays hold.
func (r *slab) bytes() int {
	return 16*(cap(r.ivs)+cap(r.spareIvs)) + 8*(cap(r.dims)+cap(r.spareDims)) + 4*(cap(r.cur.ids)+cap(r.nxt.ids))
}

// span is one dimension of a block: the interval set ivs[off:off+n] of
// its slab, in a Set's form. An int32 offset reaches 2³¹ intervals,
// 32 GiB of them.
type span struct{ off, n int32 }

// regionRef is one region of a generation: its blocks are
// ids[from:to] of the generation, and its label the generation's
// labels[i·w:(i+1)·w] for region i.
type regionRef struct{ from, to int32 }

// generation is the region list of one constraint step.
type generation struct {
	regs   []regionRef
	ids    []int32
	labels []uint64
}

func (g *generation) reset() {
	g.regs, g.ids, g.labels = g.regs[:0], g.ids[:0], g.labels[:0]
}

// slab is the working memory of one OptimalIncremental run. A block is
// an id k; its dimension d is the span dims[k·n+d]. Blocks are never
// changed once made: a split or a merge makes new blocks, appended to
// dims with their new intervals appended to ivs, and dimensions a new
// block shares with the block it came from point at the same intervals.
// Each constraint step reads the regions of cur and writes those of nxt;
// dims and ivs only grow, until compact copies the live blocks of cur
// into spare arrays once the dead ones outweigh them.
type slab struct {
	n, w     int // dimensions, label words
	ivs      []pred.Interval
	dims     []span
	cur, nxt generation

	// The restrictions of the current constraint, term by term: term i
	// is restr[termEnd[i-1]:termEnd[i]], and their sets are spans of
	// restrIvs.
	restr    []restriction
	termEnd  []int
	restrIvs []pred.Interval

	// Scratch of splitRegion and coalesce.
	in, rem, nextRem []int32
	rels             []pred.Relation
	table            []int32

	// Compaction: the arrays compact copies into, and the length of ivs
	// right after the last compaction.
	spareIvs  []pred.Interval
	spareDims []span
	liveIvs   int

	// regions' scratch: each region's corner, and the regions of cur in
	// corner order.
	corners []int64
	order   []int32
}

// restriction is a conjunct's constraint on one dimension.
type restriction struct {
	dim int
	set span
}

// reset starts a run over space with m constraints: one region, the
// whole space, labelled with no constraint.
func (r *slab) reset(space []pred.Set, m int) {
	r.n, r.w = len(space), (m+63)/64
	r.ivs, r.dims = r.ivs[:0], r.dims[:0]
	for _, s := range space {
		r.dims = append(r.dims, r.appendSet(s.Intervals()))
	}
	r.liveIvs = len(r.ivs)
	r.cur.reset()
	r.cur.ids = append(r.cur.ids, 0)
	r.cur.regs = append(r.cur.regs, regionRef{0, 1})
	for range r.w {
		r.cur.labels = append(r.cur.labels, 0)
	}
}

// appendSet appends ivs to the slab's intervals and returns their span.
func (r *slab) appendSet(ivs []pred.Interval) span {
	off := len(r.ivs)
	r.ivs = append(r.ivs, ivs...)
	return span{int32(off), int32(len(ivs))}
}

// spanOf returns the span of intervals appended since from.
func (r *slab) spanOf(from int) span { return span{int32(from), int32(len(r.ivs) - from)} }

// set returns dimension d of block k.
func (r *slab) set(k int32, d int) []pred.Interval {
	s := r.dims[int(k)*r.n+d]
	return r.ivs[s.off : s.off+s.n : s.off+s.n]
}

// clone makes a new block with the dimensions of block k and returns it.
func (r *slab) clone(k int32) int32 {
	id := int32(len(r.dims) / r.n)
	at := int(k) * r.n
	r.dims = append(r.dims, r.dims[at:at+r.n]...)
	return id
}

// setTerms lists, for each term of c, its restrictions on the run's
// dimensions in dimension order.
func (r *slab) setTerms(c pred.DNF) {
	r.restr, r.termEnd, r.restrIvs = r.restr[:0], r.termEnd[:0], r.restrIvs[:0]
	for _, t := range c.Terms {
		for dim := range r.n {
			if s, ok := t.Restriction(dim); ok {
				off := len(r.restrIvs)
				r.restrIvs = append(r.restrIvs, s.Intervals()...)
				r.restr = append(r.restr, restriction{dim, span{int32(off), int32(len(s.Intervals()))}})
			}
		}
		r.termEnd = append(r.termEnd, len(r.restr))
	}
}

// restrSet returns the interval set of restriction rs.
func (r *slab) restrSet(rs restriction) []pred.Interval {
	return r.restrIvs[rs.set.off : rs.set.off+rs.set.n : rs.set.off+rs.set.n]
}

// term returns the restrictions of term i.
func (r *slab) term(i int) []restriction {
	from := 0
	if i > 0 {
		from = r.termEnd[i-1]
	}
	return r.restr[from:r.termEnd[i]]
}

// step splits every region of cur by constraint j into its part inside
// (label + j) and outside (label unchanged), in that order, into nxt;
// then makes nxt current. It returns the number of blocks the regions
// now hold.
func (r *slab) step(j int) int {
	r.nxt.reset()
	for i, ref := range r.cur.regs {
		label := r.cur.labels[i*r.w : (i+1)*r.w]
		in, out := r.splitRegion(r.cur.ids[ref.from:ref.to])
		if len(in) > 0 {
			r.push(in, label, j)
		}
		if len(out) > 0 {
			r.push(out, label, -1)
		}
	}
	r.cur, r.nxt = r.nxt, r.cur
	live := len(r.cur.ids)
	if len(r.dims) > 2*live*r.n+4096 || len(r.ivs) > 2*r.liveIvs+4096 {
		r.compact()
	}
	return live
}

// push appends a region of blocks to nxt, with label plus bit j (none
// if j < 0); a region of more than 32 blocks is coalesced first.
func (r *slab) push(blocks []int32, label []uint64, j int) {
	from := len(r.nxt.ids)
	r.nxt.ids = append(r.nxt.ids, blocks...)
	if len(blocks) > 32 {
		kept := r.coalesce(r.nxt.ids[from:])
		r.nxt.ids = r.nxt.ids[:from+kept]
	}
	r.nxt.regs = append(r.nxt.regs, regionRef{int32(from), int32(len(r.nxt.ids))})
	at := len(r.nxt.labels)
	r.nxt.labels = append(r.nxt.labels, label...)
	if j >= 0 {
		Label(r.nxt.labels[at:]).set(j)
	}
}

// splitRegion partitions the union of blocks into the part inside the
// current constraint (union of its terms) and the part outside, keeping
// both sides as disjoint block lists. Terms are applied sequentially:
// each term claims its intersection with the remaining outside part, so
// overlapping disjuncts never double-count. A block that lies wholly on
// one side keeps its id. The lists returned are blocks itself or the
// slab's scratch, valid until the next call.
func (r *slab) splitRegion(blocks []int32) (in, out []int32) {
	rem := blocks
	inUsed := false // in holds blocks
	in = r.in[:0]
	for ti := range r.termEnd {
		if len(rem) == 0 {
			break
		}
		t := r.term(ti)
		var count [3]int // blocks per relation
		placed := r.rels[:0]
		for _, b := range rem {
			rel := r.place(b, t)
			placed = append(placed, rel)
			count[rel]++
		}
		r.rels = placed
		switch {
		case count[pred.Disjoint] == len(rem):
			continue // rem stays outside whole
		case count[pred.Inside] == len(rem) && !inUsed:
			return rem, nil
		}
		inUsed = true
		// rem is blocks or one of the two scratch lists; write the next
		// one into the other.
		next := r.nextRem[:0]
		for i, b := range rem {
			switch placed[i] {
			case pred.Disjoint:
				next = append(next, b)
			case pred.Inside:
				in = append(in, b)
			default:
				inter, ok, frags := r.subtract(b, t, next)
				if ok {
					in = append(in, inter)
				}
				next = frags
			}
		}
		r.nextRem = r.rem
		r.rem, rem = next, next
	}
	r.in = in
	if !inUsed {
		in = nil
	}
	return in, rem
}

// place tells how subtract splits block b against term t: at the first
// dimension b does not lie wholly inside, Disjoint puts all of b outside
// and Split cuts it; with none, b is Inside.
func (r *slab) place(b int32, t []restriction) pred.Relation {
	for _, rs := range t {
		if rel := pred.Classify(r.set(b, rs.dim), r.restrSet(rs)); rel != pred.Inside {
			return rel
		}
	}
	return pred.Inside
}

// subtract splits a block b that place reports Split against term t: it
// appends the fragments of b∖t to frags and returns b∩t (ok reports
// whether it is non-empty). The subtraction peels one constrained
// dimension at a time, so it emits at most one fragment per dimension t
// constrains — linear, not exponential, fragmentation. Only the
// dimension a fragment is cut along gets new intervals.
func (r *slab) subtract(b int32, t []restriction, frags []int32) (inter int32, ok bool, _ []int32) {
	cur, owned := b, false // owned: cur is a block this call made
	for _, rs := range t {
		d, set := r.set(cur, rs.dim), r.restrSet(rs)
		switch pred.Classify(d, set) {
		case pred.Inside:
			continue
		case pred.Disjoint:
			// Nothing of cur lies inside t; all of cur stays outside.
			return 0, false, append(frags, cur)
		}
		frag := r.clone(cur)
		from := len(r.ivs)
		r.ivs = pred.AppendSubtract(r.ivs, d, set)
		r.dims[int(frag)*r.n+rs.dim] = r.spanOf(from)
		frags = append(frags, frag)
		// Continue narrowing along the inside part.
		if !owned {
			cur, owned = r.clone(cur), true
		}
		from = len(r.ivs)
		r.ivs = pred.AppendIntersect(r.ivs, d, set)
		r.dims[int(cur)*r.n+rs.dim] = r.spanOf(from)
	}
	return cur, true, frags
}

// coalesce reduces a disjoint block list in place, returning its new
// length, by repeatedly merging blocks that agree on every dimension but
// one (their union is again a single block with the odd dimension's sets
// united). Subtraction fragments re-coalesce aggressively under this
// rule, keeping region representations near the information-theoretic
// minimum instead of growing with split history. A block keeps its
// place at the first block of its group.
func (r *slab) coalesce(blocks []int32) int {
	if len(blocks) < 2 {
		return len(blocks)
	}
	size := 1
	for size < 2*len(blocks) {
		size *= 2
	}
	table := reuse(&r.table, size)
	firstOwned := int32(len(r.dims) / r.n) // blocks made from here on are this call's own
	for changed := true; changed; {
		changed = false
		for d := 0; d < r.n && len(blocks) > 1; d++ {
			clear(table)
			out := blocks[:0]
			for _, b := range blocks {
				h := int(r.hashExcept(b, d)) & (size - 1)
				for ; table[h] != 0; h = (h + 1) & (size - 1) {
					idx := table[h] - 1
					if !r.equalExcept(out[idx], b, d) {
						continue
					}
					if out[idx] < firstOwned {
						out[idx] = r.clone(out[idx])
					}
					from := len(r.ivs)
					r.ivs = pred.AppendUnion(r.ivs, r.set(out[idx], d), r.set(b, d))
					r.dims[int(out[idx])*r.n+d] = r.spanOf(from)
					changed = true
					break
				}
				if table[h] == 0 {
					table[h] = int32(len(out)) + 1
					out = append(out, b)
				}
			}
			blocks = out
		}
	}
	return len(blocks)
}

// hashExcept is FNV-1a over every dimension of block k but d.
func (r *slab) hashExcept(k int32, d int) uint64 {
	h := uint64(14695981039346656037)
	for i := range r.n {
		if i == d {
			continue
		}
		for _, iv := range r.set(k, i) {
			h = (h ^ uint64(iv.Lo)) * 1099511628211
			h = (h ^ uint64(iv.Hi)) * 1099511628211
		}
		h = (h ^ 0xFF) * 1099511628211
	}
	return h
}

// equalExcept reports whether blocks a and b agree on every dimension
// but d.
func (r *slab) equalExcept(a, b int32, d int) bool {
	for i := range r.n {
		if i != d && !slices.Equal(r.set(a, i), r.set(b, i)) {
			return false
		}
	}
	return true
}

// compact copies the blocks of cur, and their intervals, into the spare
// arrays, numbering them in list order, and makes those the slab's.
func (r *slab) compact() {
	ivs, dims := r.spareIvs[:0], r.spareDims[:0]
	for i, k := range r.cur.ids {
		for d := range r.n {
			from := len(ivs)
			ivs = append(ivs, r.set(k, d)...)
			dims = append(dims, span{int32(from), int32(len(ivs) - from)})
		}
		r.cur.ids[i] = int32(i)
	}
	r.spareIvs, r.spareDims = r.ivs, r.dims
	r.ivs, r.dims = ivs, dims
	r.liveIvs = len(ivs)
}

// regions builds the run's result: the regions of cur in corner order
// (order lists them by their index in cur), each with its label and
// corner, carved from one array per kind.
func (r *slab) regions() []Region {
	n, refs := r.n, r.cur.regs
	// Each region's corner: its lexicographically smallest block corner.
	corners := reuse(&r.corners, len(refs)*n)
	for i, ref := range refs {
		c := corners[i*n : (i+1)*n]
		for k, b := range r.cur.ids[ref.from:ref.to] {
			if k == 0 || r.cornerBelow(b, c) {
				for d := range n {
					c[d] = r.set(b, d)[0].Lo
				}
			}
		}
	}
	order := reuse(&r.order, len(refs))
	for i := range order {
		order[i] = int32(i)
	}
	slices.SortFunc(order, func(a, b int32) int {
		return slices.Compare(corners[int(a)*n:int(a+1)*n], corners[int(b)*n:int(b+1)*n])
	})

	out := make([]Region, len(refs))
	labels := make([]uint64, len(refs)*r.w)
	outCorners := make([]int64, len(refs)*n)
	for pos, i := range order {
		lbl := labels[pos*r.w : (pos+1)*r.w : (pos+1)*r.w]
		copy(lbl, r.cur.labels[int(i)*r.w:])
		corner := outCorners[pos*n : (pos+1)*n : (pos+1)*n]
		copy(corner, corners[int(i)*n:])
		out[pos] = Region{Label: lbl, corner: corner}
	}
	return out
}

// cornerBelow reports whether block k's corner is lexicographically
// below c.
func (r *slab) cornerBelow(k int32, c []int64) bool {
	for d := range r.n {
		if lo := r.set(k, d)[0].Lo; lo != c[d] {
			return lo < c[d]
		}
	}
	return false
}

// reuse returns n cells backed by *buf, growing it when it is too short;
// the cells' contents are unspecified.
func reuse[T any](buf *[]T, n int) []T {
	if cap(*buf) < n {
		*buf = make([]T, n)
	}
	*buf = (*buf)[:n]
	return *buf
}
