package partition

import (
	"math/rand"
	"testing"
	"testing/quick"

	"github.com/dsl-repro/hydra/internal/pred"
)

func TestCoalesceMergesAdjacentFragments(t *testing.T) {
	// Two blocks identical on dim 0, adjacent on dim 1 → one block.
	b1 := Block{Dims: []pred.Set{pred.Range(0, 9), pred.Range(0, 4)}}
	b2 := Block{Dims: []pred.Set{pred.Range(0, 9), pred.Range(5, 9)}}
	got := coalesce([]Block{b1, b2})
	if len(got) != 1 {
		t.Fatalf("coalesced to %d blocks, want 1", len(got))
	}
	if !got[0].Dims[1].Equal(pred.Range(0, 9)) {
		t.Fatalf("merged dim wrong: %v", got[0].Dims[1])
	}
}

func TestCoalescePreservesPointSet(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		// Random disjoint blocks from a grid of a random box split.
		var blocks []Block
		for i := 0; i < 6; i++ {
			lo0 := int64(rng.Intn(50)) * 2
			lo1 := int64(rng.Intn(50)) * 2
			blocks = append(blocks, Block{Dims: []pred.Set{
				pred.Range(lo0*100, lo0*100+99),
				pred.Range(lo1*100, lo1*100+99),
			}})
		}
		merged := coalesce(blocks)
		contains := func(bs []Block, pt []int64) bool {
			for _, b := range bs {
				if b.Dims[0].Contains(pt[0]) && b.Dims[1].Contains(pt[1]) {
					return true
				}
			}
			return false
		}
		for k := 0; k < 200; k++ {
			pt := []int64{int64(rng.Intn(12000)), int64(rng.Intn(12000))}
			if contains(blocks, pt) != contains(merged, pt) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestSubtractConjunct(t *testing.T) {
	b := Block{Dims: []pred.Set{pred.Range(0, 99), pred.Range(0, 99)}}
	tconj := pred.NewConjunct().With(0, pred.Range(10, 19)).With(1, pred.Range(20, 29))
	terms := termRestrictions(pred.DNF{Terms: []pred.Conjunct{tconj}}, 2)
	if got := place(b, terms[0]); got != pred.Split {
		t.Fatalf("place = %v, want Split", got)
	}
	inter, ok, frags := subtractConjunct(b, terms[0], nil)
	if !ok {
		t.Fatal("intersection should exist")
	}
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
}

func TestSubtractConjunctMiss(t *testing.T) {
	b := Block{Dims: []pred.Set{pred.Range(0, 9)}}
	tconj := pred.NewConjunct().With(0, pred.Range(50, 60))
	terms := termRestrictions(pred.DNF{Terms: []pred.Conjunct{tconj}}, 1)
	if got := place(b, terms[0]); got != pred.Disjoint {
		t.Fatalf("place = %v, want Disjoint", got)
	}
	_, ok, frags := subtractConjunct(b, terms[0], nil)
	if ok {
		t.Fatal("no intersection expected")
	}
	if len(frags) != 1 || !frags[0].Dims[0].Equal(pred.Range(0, 9)) {
		t.Fatalf("block should survive whole: %v", frags)
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
		regions, err := OptimalIncremental(space, cons, 0)
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
