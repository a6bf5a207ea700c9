package partition

import (
	"encoding/binary"
	"math/rand"
	"reflect"
	"slices"
	"sync"
	"testing"
	"testing/quick"

	"github.com/dsl-repro/hydra/internal/pred"
)

// coalesce is the block-list form of (*slab).coalesce, as it was before
// blocks moved into slabs; frozenOptimalIncremental uses it.
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
			buf = binary.LittleEndian.AppendUint64(buf, uint64(iv.Lo))
			buf = binary.LittleEndian.AppendUint64(buf, uint64(iv.Hi))
		}
		buf = append(buf, 0xFF)
	}
	return string(buf)
}

// loaded returns a slab over n dimensions holding blocks, and their ids.
func loaded(n int, blocks ...Block) (*slab, []int32) {
	r := &slab{n: n}
	ids := make([]int32, len(blocks))
	for i, b := range blocks {
		ids[i] = int32(len(r.dims) / n)
		for _, s := range b.Dims {
			r.dims = append(r.dims, r.appendSet(s.Intervals()))
		}
	}
	return r, ids
}

// block reads block k of the slab back as a Block.
func (r *slab) block(k int32) Block {
	b := Block{Dims: make([]pred.Set, r.n)}
	for d := range r.n {
		b.Dims[d] = pred.NewSet(r.set(k, d)...)
	}
	return b
}

func (r *slab) blocks(ids []int32) []Block {
	out := make([]Block, len(ids))
	for i, k := range ids {
		out[i] = r.block(k)
	}
	return out
}

// optimalIncrementalBlocks is OptimalIncremental with each region's
// blocks, read from the same run's slab: the blocks the run left in the
// region, in the run's order, their intervals copied as they are.
func optimalIncrementalBlocks(space []pred.Set, cons []pred.DNF, maxBlocks int) ([]Region, error) {
	r, err := run(space, cons, maxBlocks)
	if r == nil {
		return nil, err
	}
	defer slabs.Put(r)
	regions := r.regions()
	for pos, i := range r.order {
		ref := r.cur.regs[i]
		for _, k := range r.cur.ids[ref.from:ref.to] {
			b := Block{Dims: make([]pred.Set, r.n)}
			for d := range r.n {
				b.Dims[d] = pred.Sorted(slices.Clone(r.set(k, d)))
			}
			regions[pos].Blocks = append(regions[pos].Blocks, b)
		}
	}
	return regions, nil
}

// term1 is the slab's restrictions of a one-term constraint.
func term1(r *slab, c pred.Conjunct) []restriction {
	r.setTerms(pred.DNF{Terms: []pred.Conjunct{c}})
	return r.term(0)
}

func TestCoalesceMergesAdjacentFragments(t *testing.T) {
	// Two blocks identical on dim 0, adjacent on dim 1 → one block.
	b1 := Block{Dims: []pred.Set{pred.Range(0, 9), pred.Range(0, 4)}}
	b2 := Block{Dims: []pred.Set{pred.Range(0, 9), pred.Range(5, 9)}}
	r, ids := loaded(2, b1, b2)
	got := r.blocks(ids[:r.coalesce(ids)])
	if len(got) != 1 {
		t.Fatalf("coalesced to %d blocks, want 1", len(got))
	}
	if !got[0].Dims[1].Equal(pred.Range(0, 9)) {
		t.Fatalf("merged dim wrong: %v", got[0].Dims[1])
	}
	// The blocks merged into are left as they were.
	if !r.block(0).Dims[1].Equal(pred.Range(0, 4)) {
		t.Fatalf("block 0 changed: %v", r.block(0))
	}
}

// TestCoalescePreservesPointSet checks the slab's coalesce against the
// block-list one on random disjoint blocks: the same blocks, in the same
// order, and so the same point set.
func TestCoalescePreservesPointSet(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		// Random cells of a grid, some repeated rows and columns, so
		// that merges chain across dimensions.
		seen := map[[2]int64]bool{}
		var blocks []Block
		for n := 6 + rng.Intn(40); len(blocks) < n; {
			lo := [2]int64{int64(rng.Intn(8)) * 100, int64(rng.Intn(8)) * 100}
			if seen[lo] {
				continue
			}
			seen[lo] = true
			blocks = append(blocks, Block{Dims: []pred.Set{
				pred.Range(lo[0], lo[0]+99),
				pred.Range(lo[1], lo[1]+99),
			}})
		}
		want := coalesce(blocks)
		r, ids := loaded(2, blocks...)
		got := r.blocks(ids[:r.coalesce(ids)])
		if len(got) != len(want) {
			return false
		}
		contains := func(bs []Block, pt []int64) bool {
			for _, b := range bs {
				if b.Dims[0].Contains(pt[0]) && b.Dims[1].Contains(pt[1]) {
					return true
				}
			}
			return false
		}
		for range 200 {
			pt := []int64{int64(rng.Intn(900)), int64(rng.Intn(900))}
			if contains(blocks, pt) != contains(got, pt) {
				return false
			}
		}
		for i := range got {
			for d := range got[i].Dims {
				if !got[i].Dims[d].Equal(want[i].Dims[d]) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestSubtractConjunct(t *testing.T) {
	r, ids := loaded(2, Block{Dims: []pred.Set{pred.Range(0, 99), pred.Range(0, 99)}})
	term := term1(r, pred.NewConjunct().With(0, pred.Range(10, 19)).With(1, pred.Range(20, 29)))
	if got := r.place(ids[0], term); got != pred.Split {
		t.Fatalf("place = %v, want Split", got)
	}
	id, ok, fragIDs := r.subtract(ids[0], term, nil)
	if !ok {
		t.Fatal("intersection should exist")
	}
	inter, frags := r.block(id), r.blocks(fragIDs)
	if !inter.Dims[0].Equal(pred.Range(10, 19)) || !inter.Dims[1].Equal(pred.Range(20, 29)) {
		t.Fatalf("intersection wrong: %v", inter)
	}
	// Fragments plus intersection must tile the block exactly.
	var total int64 = inter.Dims[0].Count() * inter.Dims[1].Count()
	for _, fr := range frags {
		total += fr.Dims[0].Count() * fr.Dims[1].Count()
	}
	if total != 100*100 {
		t.Fatalf("pieces cover %d points, want 10000", total)
	}
	// Fragments must be disjoint from the intersection.
	for _, fr := range frags {
		if !fr.Dims[0].Intersect(inter.Dims[0]).Empty() &&
			!fr.Dims[1].Intersect(inter.Dims[1]).Empty() {
			t.Fatalf("fragment overlaps intersection: %v", fr)
		}
	}
	// The block split is left as it was.
	if b := r.block(ids[0]); !b.Dims[0].Equal(pred.Range(0, 99)) || !b.Dims[1].Equal(pred.Range(0, 99)) {
		t.Fatalf("split block changed: %v", b)
	}
}

func TestSubtractConjunctMiss(t *testing.T) {
	r, ids := loaded(1, Block{Dims: []pred.Set{pred.Range(0, 9)}})
	term := term1(r, pred.NewConjunct().With(0, pred.Range(50, 60)))
	if got := r.place(ids[0], term); got != pred.Disjoint {
		t.Fatalf("place = %v, want Disjoint", got)
	}
	_, ok, frags := r.subtract(ids[0], term, nil)
	if ok {
		t.Fatal("no intersection expected")
	}
	if len(frags) != 1 || frags[0] != ids[0] {
		t.Fatalf("block should survive whole: %v", frags)
	}
}

// regionsSnapshot deep-copies regions with their corners and
// representative blocks.
type regionSnapshot struct {
	labels  []Label
	blocks  [][][][]pred.Interval
	corners [][]int64
	reps    []int
}

func snapshot(regions []Region) regionSnapshot {
	var s regionSnapshot
	for _, r := range regions {
		s.labels = append(s.labels, slices.Clone(r.Label))
		var bs [][][]pred.Interval
		for _, b := range r.Blocks {
			var ds [][]pred.Interval
			for _, d := range b.Dims {
				ds = append(ds, slices.Clone(d.Intervals()))
			}
			bs = append(bs, ds)
		}
		s.blocks = append(s.blocks, bs)
		s.corners = append(s.corners, slices.Clone(r.Rep()))
		s.reps = append(s.reps, slices.IndexFunc(r.Blocks, func(b Block) bool { return slices.Equal(b.Rep(), r.Rep()) }))
	}
	return s
}

func (s regionSnapshot) equal(o regionSnapshot) bool {
	return reflect.DeepEqual(s, o)
}

// TestOptimalIncrementalRunsShareNothing runs OptimalIncremental on
// inputs one after another and on concurrent goroutines (run it under
// -race): the regions, blocks and corners of a run must be unchanged by
// every run after it, and each region's corner must be the corner of one
// of its blocks, the smallest.
func TestOptimalIncrementalRunsShareNothing(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	type input struct {
		space []pred.Set
		cons  []pred.DNF
	}
	inputs := make([]input, 40)
	for i := range inputs {
		nDims := 1 + rng.Intn(3)
		in := input{space: make([]pred.Set, nDims)}
		for d := range in.space {
			in.space[d] = pred.Range(0, 120)
		}
		for range 2 + rng.Intn(30) {
			in.cons = append(in.cons, randTermsDNF(rng, nDims))
		}
		inputs[i] = in
	}
	run := func(in input) ([]Region, regionSnapshot) {
		regions, err := optimalIncrementalBlocks(in.space, in.cons, 0)
		if err != nil {
			t.Error(err)
		}
		for i, r := range regions {
			rep := r.RepBlock()
			for _, b := range r.Blocks {
				if slices.Compare(b.Rep(), rep.Rep()) < 0 {
					t.Errorf("region %d: block corner %v below the representative %v", i, b.Rep(), rep.Rep())
				}
			}
			if !slices.Equal(rep.Rep(), r.Rep()) {
				t.Errorf("region %d: corner %v, representative block's %v", i, r.Rep(), rep.Rep())
			}
		}
		return regions, snapshot(regions)
	}

	// Back to back: every run's regions against their snapshot after
	// all the runs.
	regions := make([][]Region, len(inputs))
	snaps := make([]regionSnapshot, len(inputs))
	for i, in := range inputs {
		regions[i], snaps[i] = run(in)
	}
	for i := range inputs {
		if !snapshot(regions[i]).equal(snaps[i]) {
			t.Fatalf("input %d: regions changed by the runs after it", i)
		}
	}

	// Concurrently: each goroutine runs every input, and must see what
	// the runs back to back saw.
	var wg sync.WaitGroup
	for range 4 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i, in := range inputs {
				if _, s := run(in); !s.equal(snaps[i]) {
					t.Errorf("input %d: a concurrent run differs", i)
				}
			}
		}()
	}
	wg.Wait()
	for i := range inputs {
		if !snapshot(regions[i]).equal(snaps[i]) {
			t.Fatalf("input %d: regions changed by concurrent runs", i)
		}
	}
}

// Property: within the incremental result, regions are pairwise disjoint
// and cover the space (same guarantees as Optimal, independently checked).
func TestQuickIncrementalPartitionProperties(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		nDims := 1 + rng.Intn(3)
		space := make([]pred.Set, nDims)
		for i := range space {
			space[i] = pred.Range(0, 100)
		}
		var cons []pred.DNF
		for i := 0; i < 1+rng.Intn(5); i++ {
			cons = append(cons, randDNF(rng, nDims))
		}
		regions, err := optimalIncrementalBlocks(space, cons, 0)
		if err != nil {
			return false
		}
		for k := 0; k < 120; k++ {
			pt := make([]int64, nDims)
			for i := range pt {
				pt[i] = int64(rng.Intn(101))
			}
			hits := 0
			for _, r := range regions {
				if r.Contains(pt) {
					hits++
				}
			}
			if hits != 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}
